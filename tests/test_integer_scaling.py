"""F, G, the associativity check, the Yetter-Drinfeld axiom checks and the
H-opposite contract on integers, each tensor over its own common
denominator. These tests compare them with the Fraction references of
``tests/reference.py`` on objects whose product, action and coaction have
different denominators, and on an H₄ whose rescaled basis gives its unit,
counit, product, coproduct and S⁻¹ non-integer coefficients, so a scale
applied to the wrong tensor, or a missing one, changes an entry or a failure
list."""

import random
from fractions import Fraction as Q

import pytest

from conftest import (
    action_matrices,
    coaction_rows,
    cop_sparse,
    counit_vec,
    dense_algebra,
    dense_cop,
    dense_hopf,
    dense_mult,
    dense_yd,
    s_matrix,
    sweedler2,
    unit_vec,
    yd_images,
    yd_rho,
)
import reference
from hopfbrauer.algebra import check_algebra_axioms
from hopfbrauer.e2 import build_c_e2
from hopfbrauer.linalg import Matrix, common_denominator
from hopfbrauer.sweedler import CFamilyDescriptor, build_C, build_h4
from hopfbrauer.yd import FGContraction, check_yd_algebra, check_yd_module, fg_maps, h_opposite, sharp_product

# H₄ on the basis 2·1, g/2, h/3, gh/5. Scaling h and gh alone would leave
# Δ and S⁻¹ integral (each of their terms is linear in h), so 1 and g are
# scaled too.
H4_SCALES = [Q(2), Q(1, 2), Q(1, 3), Q(1, 5)]


def _rescaled_hopf(h, s):
    """``h`` on the basis s_i·e_i."""
    n = h.dim
    cop = [[s[i] * c / (s[k // n] * s[k % n]) for k, c in enumerate(row)] for i, row in enumerate(dense_cop(h))]
    counit = [s[i] * e for i, e in enumerate(counit_vec(h))]

    def conj(m):
        return Matrix([[s[j] * m.data[k][j] / s[k] for j in range(n)] for k in range(n)])

    return dense_hopf(
        _rescaled(h.alg, s), cop, counit, conj(s_matrix(h)), conj(s_matrix(h, inverse=True)), name="H4'", meta=h.meta
    )


def _transported(a, hopf, s, r):
    """``a`` moved to ``hopf``, its H on the basis s_i·e_i, with its own
    carrier on the basis r_j·e_j."""
    n, d = hopf.dim, a.dim
    action = [
        Matrix([[s[i] * r[j] * m.data[k][j] / r[k] for j in range(d)] for k in range(d)])
        for i, m in enumerate(action_matrices(a))
    ]
    coaction = [
        [r[j] * c / (r[k // n] * s[k % n]) for k, c in enumerate(row)] for j, row in enumerate(coaction_rows(a))
    ]
    return dense_yd(hopf, d, _rescaled(a.alg, r), action, coaction)


def _object(name):
    if name.endswith("rescaled H4"):
        h4 = _rescaled_hopf(build_h4(), H4_SCALES)
        c1, c2 = (
            _transported(build_C(CFamilyDescriptor(*p)), h4, H4_SCALES, r)
            for p, r in (((Q(1, 7), Q(3, 11), Q(5, 13)), [Q(7, 3), Q(2, 5)]), ((Q(-2, 5), Q(9, 4), Q(1, 3)), [1, 3]))
        )
        return c1 if name.startswith("C ") else sharp_product(c1, c2)
    if name.startswith("C#C"):
        a = sharp_product(
            build_C(CFamilyDescriptor(Q(1, 7), Q(3, 11), Q(5, 13))),
            build_C(CFamilyDescriptor(Q(-2, 5), Q(9, 4), Q(1, 3))),
        )
        return h_opposite(a) if name.endswith("opposite") else a
    return sharp_product(build_c_e2(Q(2, 7), Q(3, 5), Q(-1, 11)), build_c_e2(Q(5, 3), Q(1, 4), Q(2, 13)))


OBJECTS = ["C#C", "C#C opposite", "E(2) C#C"]


@pytest.mark.parametrize("name", OBJECTS)
def test_tensors_have_distinct_denominators(name):
    a = _object(name)
    den_m = a.alg.int_sp[0]
    den_a = common_denominator(c for row in yd_images(a) for v in row for c in v.values())
    den_c = common_denominator(c for row in yd_rho(a) for _, _, c in row)
    assert len({den_m, den_a, den_c, 1}) == 4
    assert FGContraction(a).den == den_c * den_a * den_m * den_m


@pytest.mark.parametrize("name", OBJECTS)
def test_fg_maps_equal_the_fraction_loop(name):
    a = _object(name)
    f, g = fg_maps(a)
    ref_f, ref_g = reference.fg(a)
    assert f.data == ref_f.data
    assert g.data == ref_g.data
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


def _rescaled(alg, s):
    """The same algebra on the basis s_i·e_i; with s_0 ≠ 1 its unit is 1/s_0
    times a basis vector, and the unit law needs the unit's own scale."""
    mult = [
        [[s[i] * s[j] * c / s[k] for k, c in enumerate(v)] for j, v in enumerate(row)]
        for i, row in enumerate(dense_mult(alg))
    ]
    return dense_algebra(alg.basis, [u / s[k] for k, u in enumerate(unit_vec(alg))], mult, name=alg.name)


def _corrupt(alg, kind):
    mult = dense_mult(alg)
    unit = list(unit_vec(alg))
    if kind == "constant + 1/97":
        mult[1][2][3] += Q(1, 97)
    elif kind == "constant - 3":
        mult[3][1][0] -= 3
    else:
        unit[1] += Q(1, 5)
    return dense_algebra(alg.basis, unit, mult, name=kind)


@pytest.mark.parametrize("kind", ["constant + 1/97", "constant - 3", "unit law"])
@pytest.mark.parametrize("name", OBJECTS)
def test_axiom_failures_match_the_fraction_check(name, kind):
    alg = _object(name).alg
    alg = _rescaled(alg, [Q(7, 3)] + [1] * (alg.dim - 1))
    assert check_algebra_axioms(alg).failures == reference.algebra_axioms(alg) == []
    bad = _corrupt(alg, kind)
    failures = check_algebra_axioms(bad).failures
    assert failures == reference.algebra_axioms(bad)
    assert failures
    assert any(f.startswith("unit law") for f in failures) == (kind == "unit law")


# ---------------------------------------------------------------------------
# Yetter-Drinfeld axiom checks and the H-opposite against their Fraction loops
# ---------------------------------------------------------------------------


YD_OBJECTS = OBJECTS + ["C over rescaled H4", "C#C over rescaled H4"]
YD_MODULES = ["C#C module", "C#C module over rescaled H4"]


def _yd_object(name):
    if name.endswith("module") or "module over" in name:
        a = _object(name.replace(" module", ""))
        return dense_yd(a.hopf, a.dim, None, action_matrices(a), coaction_rows(a))
    return _object(name)


def _corrupt_yd(a, kind):
    """``a`` with one entry changed: of an action matrix, of the coaction, of
    A's product or of H's product."""
    h, d, n = a.hopf, a.dim, a.hopf.dim
    action, coaction, alg = list(action_matrices(a)), coaction_rows(a), a.alg
    if kind == "action + 1/97":
        data = [list(row) for row in action[n - 1].data]
        data[0][d - 1] += Q(1, 97)
        action[n - 1] = Matrix(data)
    elif kind == "coaction - 3":
        coaction = [list(row) for row in coaction]
        coaction[d - 1][0] -= 3
    elif kind == "A constant + 1/5":
        mult = dense_mult(alg)
        mult[d - 1][0][d - 1] += Q(1, 5)
        alg = dense_algebra(alg.basis, unit_vec(alg), mult, name=alg.name)
    else:
        mult = dense_mult(h.alg)
        mult[1][n - 1][0] += Q(1, 5)
        h_alg = dense_algebra(h.alg.basis, unit_vec(h.alg), mult, name=h.alg.name)
        h = dense_hopf(
            h_alg, dense_cop(h), counit_vec(h), s_matrix(h), s_matrix(h, inverse=True), name=h.name, meta=h.meta
        )
    return dense_yd(h, d, alg, action, coaction)


def _yd_failures(a):
    return (check_yd_algebra(a) if a.alg is not None else check_yd_module(a)).failures


def test_rescaled_h4_has_a_scale_on_every_tensor():
    a = _object("C#C over rescaled H4")
    h = a.hopf
    scales = {
        "unit of H": common_denominator(unit_vec(h.alg)),
        "unit of A": common_denominator(unit_vec(a.alg)),
        "counit": common_denominator(counit_vec(h)),
        "product of H": h.alg.int_sp[0],
        "product of A": a.alg.int_sp[0],
        "coproduct": common_denominator(c for i in range(h.dim) for _, _, c in cop_sparse(h, i)),
        "(Δ⊗id)Δ": common_denominator(c for i in range(h.dim) for *_, c in sweedler2(h, i)),
        "S⁻¹": common_denominator(c for row in s_matrix(h, inverse=True).data for c in row),
        "action": a.int_images[0],
        "coaction": a.int_rho[0],
    }
    assert all(den > 1 for den in scales.values()), scales


@pytest.mark.parametrize("name", YD_OBJECTS + YD_MODULES)
def test_yd_checks_pass_like_the_fraction_loops(name):
    a = _yd_object(name)
    assert _yd_failures(a) == reference.yd_laws(a) == []


YD_CORRUPTIONS = [
    (name, kind)
    for name in YD_OBJECTS + YD_MODULES
    for kind in ("action + 1/97", "coaction - 3", "A constant + 1/5", "H constant + 1/5")
    if name in YD_OBJECTS or kind != "A constant + 1/5"
]


@pytest.mark.parametrize("name,kind", YD_CORRUPTIONS)
def test_yd_failures_match_the_fraction_loops(name, kind):
    bad = _corrupt_yd(_yd_object(name), kind)
    failures = _yd_failures(bad)
    assert failures
    assert failures == reference.yd_laws(bad)


@pytest.mark.parametrize("name", ["C#C", "E(2) C#C", "C over rescaled H4", "C#C over rescaled H4"])
def test_h_opposite_equals_the_fraction_loop(name):
    a = _object(name)
    opposite = h_opposite(a)
    want = dense_algebra(a.alg.basis, unit_vec(a.alg), reference.h_opposite_table(a))
    assert opposite.alg.same_product(want)
    assert _yd_failures(opposite) == reference.yd_laws(opposite) == []
