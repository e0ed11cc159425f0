"""Products in H⊗H and H⊗H⊗H, the Hopf and quasitriangular checks built on
them, and the Drinfeld double contract on integers over known scales.

The integer kernels ``_t2_int`` and ``_t3_int``, each operand over its least
common denominator (``t2_mul`` and ``t3_mul`` below), are compared with the
Fraction loop ``reference.tensor_product`` on seeded sparse elements of H₄,
E(2), D(H₄) and an H₄ on a rescaled basis (product constants over D_m > 1),
including products that cancel to zero. The checks
are compared on the rescaled H₄ with the same checks on H₄: rescaling a
basis vector changes no identity's truth, so the failure lists agree, while a
scale dropped on a tensor whose denominator is 1 on H₄ shows up here."""

import random
from fractions import Fraction as Q

import pytest

import reference
from conftest import acc, counit_vec, dense_cop, dense_hopf, dense_qt, diag, mul_basis, r_vec, s_matrix, unit_vec
from test_integer_scaling import H4_SCALES, _rescaled_hopf

from hopfbrauer.e2 import build_e2
from hopfbrauer.hopf import check_hopf_axioms, check_quasitriangular, _t2_int, _t3_int, drinfeld_double
from hopfbrauer.linalg import Matrix, over, scaled
from hopfbrauer.sweedler import build_h4, build_rt


def t2_mul(alg, x, y):
    """x·y in H⊗H: ``_t2_int`` of x and y over D_x and D_y, over D_x·D_y·D_m²."""
    den_m, sp = alg.int_sp
    (xi, dx), (yi, dy) = scaled(x), scaled(y)
    return over(_t2_int(sp, xi, yi), dx * dy * den_m**2)


def t3_mul(alg, x, y):
    """x·y in H⊗H⊗H: ``_t3_int`` of x and y over D_x and D_y, over D_x·D_y·D_m³."""
    den_m, sp = alg.int_sp
    (xi, dx), (yi, dy) = scaled(x), scaled(y)
    return over(_t3_int(sp, xi, yi), dx * dy * den_m**3)


# -- the Hopf algebras and an involution u (u² = 1, u ≠ ±1) in each --------------


def _rescaled_h4():
    return _rescaled_hopf(build_h4(), H4_SCALES)


def _dh4():
    return drinfeld_double(build_h4())[0]


def _involution(name, h):
    """(1 + u)(1 − u) = 0 gives products that cancel to zero."""
    if name == "H4":
        return {h.meta["g"]: Q(1)}
    if name == "E2":
        return {h.meta["c"]: Q(1)}
    if name == "rescaled H4":
        # g = e₁ on H₄'s basis, and e₁ = g/2 on the rescaled one
        return {1: 1 / H4_SCALES[1]}
    # ε ⋈ g in D(H₄), with ε = f_1 + f_g on the dual basis
    return {0 * 4 + 1: Q(1), 1 * 4 + 1: Q(1)}


HOPFS = {"H4": build_h4, "E2": build_e2, "rescaled H4": _rescaled_h4, "D(H4)": _dh4}


def _rat(rng):
    return Q(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))


def _element(rng, n, order, nnz):
    keys = {tuple(rng.randrange(n) for _ in range(order)) for _ in range(nnz)}
    return {key: _rat(rng) for key in keys}


def _vector(rng, n, nnz):
    return {k: _rat(rng) for k in {rng.randrange(n) for _ in range(nnz)}}


def _vec_mul(alg, x, y):
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in mul_basis(alg, i, j):
                acc(out, k, a * b * c)
    return out


def _one_plus_minus(alg, u, sign):
    """1 + sign·u as a sparse vector."""
    out = {k: c for k, c in enumerate(unit_vec(alg)) if c}
    for k, c in u.items():
        acc(out, k, sign * c)
    return out


def _tensor(*factors):
    out = {(): Q(1)}
    for f in factors:
        out = {key + (k,): c * d for key, c in out.items() for k, d in f.items()}
    return out


def _cases(name, order):
    """Seeded (x, y) pairs in H^{⊗order}: random ones, pairs whose product
    cancels to zero, and random pairs plus a cancelling part."""
    h = HOPFS[name]()
    alg, n = h.alg, h.dim
    rng = random.Random(f"{name}:{order}")
    u = _involution(name, h)
    plus, minus = _one_plus_minus(alg, u, 1), _one_plus_minus(alg, u, -1)
    assert _vec_mul(alg, u, u) == {k: c for k, c in enumerate(unit_vec(alg)) if c}
    assert plus != {} and minus != {} and _vec_mul(alg, plus, minus) == {}
    cases = [(_element(rng, n, order, nnz), _element(rng, n, order, nnz)) for nnz in (1, 3, 8, 20)]
    for _ in range(3):
        x = _tensor(plus, *[_vector(rng, n, 3) for _ in range(order - 1)])
        y = _tensor(minus, *[_vector(rng, n, 3) for _ in range(order - 1)])
        cases.append((x, y))
        noise = _element(rng, n, order, 4)
        cases.append(({k: x.get(k, 0) + noise.get(k, 0) for k in x.keys() | noise.keys()}, y))
    cases.append(({}, cases[0][1]))
    return alg, cases


@pytest.mark.parametrize("name", HOPFS)
def test_t2_mul_equals_the_fraction_loop(name):
    alg, cases = _cases(name, 2)
    zeros = 0
    for x, y in cases:
        want = reference.tensor_product(alg, x, y)
        assert t2_mul(alg, x, y) == want
        zeros += want == {}
    assert zeros >= 4


@pytest.mark.parametrize("name", HOPFS)
def test_t3_mul_equals_the_fraction_loop(name):
    alg, cases = _cases(name, 3)
    zeros = 0
    for x, y in cases:
        want = reference.tensor_product(alg, x, y)
        assert t3_mul(alg, x, y) == want
        zeros += want == {}
    assert zeros >= 4


def test_rescaled_h4_products_have_a_denominator():
    assert _rescaled_h4().alg.int_sp[0] > 1
    assert _dh4().alg.int_sp[0] == 1


# -- the checks on a rescaled basis --------------------------------------------


def _h4_corruptions():
    h4 = build_h4()
    h4_cop = dense_cop(h4)
    cop = dense_cop(h4)
    cop[2][5] += Q(1, 2)
    return {
        "clean": h4,
        "identity antipode": dense_hopf(h4.alg, h4_cop, counit_vec(h4), Matrix.identity(4), name="bad"),
        "coproduct": dense_hopf(h4.alg, cop, counit_vec(h4), s_matrix(h4), s_matrix(h4, inverse=True), name="bad"),
        "counit": dense_hopf(h4.alg, h4_cop, [1, 1, 1, 0], s_matrix(h4), s_matrix(h4, inverse=True), name="bad"),
        "antipode inverse": dense_hopf(
            h4.alg, h4_cop, counit_vec(h4), s_matrix(h4), diag([1, 1, 1, 2]), name="bad"
        ),
    }


@pytest.mark.parametrize("kind", _h4_corruptions())
def test_hopf_failures_do_not_depend_on_the_basis_scale(kind):
    h = _h4_corruptions()[kind]
    failures = check_hopf_axioms(h).failures
    assert (failures == []) == (kind == "clean")
    assert check_hopf_axioms(_rescaled_hopf(h, H4_SCALES)).failures == failures


def _rescaled_r(r, s):
    n = len(s)
    return [c / (s[k // n] * s[k % n]) for k, c in enumerate(r)]


@pytest.mark.parametrize("t", [Q(0), Q(-3, 2)])
@pytest.mark.parametrize("bump", [None, 5, 10])
def test_qt_failures_do_not_depend_on_the_basis_scale(t, bump):
    h4, rt = build_h4(), build_rt(t)
    r = list(r_vec(rt))
    if bump is not None:
        r[bump] += Q(1, 3)
    rep = check_quasitriangular(h4, dense_qt(h4, r, r_vec(rt, inverse=True)))
    assert rep.ok == (bump is None)
    scaled = _rescaled_hopf(h4, H4_SCALES)
    qt = dense_qt(scaled, _rescaled_r(r, H4_SCALES), _rescaled_r(r_vec(rt, inverse=True), H4_SCALES))
    rescaled = check_quasitriangular(scaled, qt)
    assert rescaled.failures == rep.failures
    assert rescaled.data == rep.data
