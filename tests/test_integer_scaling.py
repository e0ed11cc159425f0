"""F, G and the associativity check contract on integers, each tensor over
its own common denominator. These tests compare them with Fraction
references on objects whose product, action and coaction have different
denominators, so a scale applied to the wrong tensor, or a missing one,
changes an entry."""

import random
from fractions import Fraction as Q

import pytest

from hopfbrauer.algebra import CheckReport, StructureAlgebra, check_algebra_axioms
from hopfbrauer.e2 import build_c_e2
from hopfbrauer.linalg import common_denominator, sparse_sum, sparse_vec
from hopfbrauer.sweedler import CFamilyDescriptor, build_C
from hopfbrauer.yd import FGContraction, fg_maps, h_opposite, sharp_product


def _object(name):
    if name.startswith("C#C"):
        a = sharp_product(
            build_C(CFamilyDescriptor(Q(1, 7), Q(3, 11), Q(5, 13))),
            build_C(CFamilyDescriptor(Q(-2, 5), Q(9, 4), Q(1, 3))),
        )
        return h_opposite(a) if name.endswith("opposite") else a
    return sharp_product(build_c_e2(Q(2, 7), Q(3, 5), Q(-1, 11)), build_c_e2(Q(5, 3), Q(1, 4), Q(2, 13)))


OBJECTS = ["C#C", "C#C opposite", "E(2) C#C"]


def _reference_fg(a):
    """F and G by the Fraction contraction that built them before the
    integer scaling: the same loop, on ``mul_sparse``."""
    alg, d = a.alg, a.dim
    mul = alg.mul_sparse
    basis = [{j: Q(1)} for j in range(d)]
    right = [[[mul(basis[k], hy) for k in range(d)] for hy in a.images[y]] for y in range(d)]
    f = [[Q(0)] * (d * d) for _ in range(d * d)]
    g = [[Q(0)] * (d * d) for _ in range(d * d)]
    for x in range(d):
        for z in range(d):
            f_left = {}
            for z0, z1, c in a.rho[z]:
                mul(basis[x], {z0: c}, f_left.setdefault(z1, {}))
            g_left = {}
            for x0, x1, c in a.rho[x]:
                mul({x0: c}, a.images[z][x1], g_left)
            for y in range(d):
                col = x * d + y
                fz = sparse_sum((uk, right[y][h][k]) for h, u in f_left.items() for k, uk in u.items())
                for p, v in fz.items():
                    f[z * d + p][col] = v
                for p, v in mul(g_left, basis[y]).items():
                    g[z * d + p][col] = v
    return f, g


def _reference_axioms(a):
    """``check_algebra_axioms`` as it was on Fractions."""
    rep = CheckReport(f"algebra axioms ({a.name or 'unnamed'})")
    unit = sparse_vec(a.unit)
    basis = [{i: Q(1)} for i in range(a.dim)]
    for i, ei in enumerate(basis):
        rep.require(
            a.mul_sparse(unit, ei) == ei and a.mul_sparse(ei, unit) == ei,
            f"unit law fails at basis element {a.basis[i]}",
        )
    for i, ei in enumerate(basis):
        for j in range(a.dim):
            ij = dict(a.mul_basis(i, j))
            for l, el in enumerate(basis):
                lhs = a.mul_sparse(ij, el)
                rhs = a.mul_sparse(ei, dict(a.mul_basis(j, l)))
                rep.require(lhs == rhs, f"associativity fails at triple ({i},{j},{l})")
    return rep.failures


@pytest.mark.parametrize("name", OBJECTS)
def test_tensors_have_distinct_denominators(name):
    a = _object(name)
    den_m = a.alg.int_sp[0]
    den_a = common_denominator(c for row in a.images for v in row for c in v.values())
    den_c = common_denominator(c for row in a.rho for _, _, c in row)
    assert len({den_m, den_a, den_c, 1}) == 4
    assert FGContraction(a).den == den_c * den_a * den_m * den_m


@pytest.mark.parametrize("name", OBJECTS)
def test_fg_maps_equal_the_fraction_loop(name):
    a = _object(name)
    f, g = fg_maps(a)
    ref_f, ref_g = _reference_fg(a)
    assert f.data == ref_f
    assert g.data == ref_g
    assert any(v.denominator > 1 for row in f.data for v in row)


def _sparse(rng, dim):
    return {
        k: Q(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))
        for k in rng.sample(range(dim), rng.randint(1, dim))
    }


@pytest.mark.parametrize("name", OBJECTS)
def test_f_and_g_values_are_column_combinations(name):
    a = _object(name)
    d = a.dim
    f, g = fg_maps(a)
    fg = FGContraction(a)
    rng = random.Random(name)
    for _ in range(4):
        x, y, z = (_sparse(rng, d) for _ in range(3))
        for value, m in ((fg.f_value(x, y, z), f), (fg.g_value(x, y, z), g)):
            want = {}
            for i, cx in x.items():
                for j, cy in y.items():
                    for k, cz in z.items():
                        for p in range(d):
                            entry = m.data[k * d + p][i * d + j]
                            if entry:
                                want[p] = want.get(p, Q(0)) + cx * cy * cz * entry
            assert value == {p: v for p, v in want.items() if v}


def _rescaled(alg, lam):
    """The same algebra on the basis λ·e_0, e_1, …, so that its unit is 1/λ
    times a basis vector and the unit law needs the unit's own scale."""
    s = [lam] + [1] * (alg.dim - 1)
    mult = [
        [[s[i] * s[j] * c / s[k] for k, c in enumerate(alg.mult[i][j])] for j in range(alg.dim)]
        for i in range(alg.dim)
    ]
    return StructureAlgebra(alg.basis, [u / s[k] for k, u in enumerate(alg.unit)], mult, name=alg.name)


def _corrupt(alg, kind):
    mult = [[list(v) for v in row] for row in alg.mult]
    unit = list(alg.unit)
    if kind == "constant + 1/97":
        mult[1][2][3] += Q(1, 97)
    elif kind == "constant - 3":
        mult[3][1][0] -= 3
    else:
        unit[1] += Q(1, 5)
    return StructureAlgebra(alg.basis, unit, mult, name=kind)


@pytest.mark.parametrize("kind", ["constant + 1/97", "constant - 3", "unit law"])
@pytest.mark.parametrize("name", OBJECTS)
def test_axiom_failures_match_the_fraction_check(name, kind):
    alg = _rescaled(_object(name).alg, Q(7, 3))
    assert check_algebra_axioms(alg).failures == _reference_axioms(alg) == []
    bad = _corrupt(alg, kind)
    failures = check_algebra_axioms(bad).failures
    assert failures == _reference_axioms(bad)
    assert failures
    assert any(f.startswith("unit law") for f in failures) == (kind == "unit law")
