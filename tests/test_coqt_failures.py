"""Failure lists of the coquasitriangular check, the lazy-cocycle check and
the Hopf-morphism check, pinned on corrupted inputs.

Each case bumps one coefficient by 1/3: an entry of the form r_t or of its
convolution inverse, an entry of the table of σ_t, or an entry of one column
of φ: H₄ → H₄*. The pins are (number of failures, the first 16 hex digits of
the sha256 of the JSON failure list) and were computed with the Fraction
loops these checks ran before they contracted on integers. The coquasi-
triangular and morphism cases are repeated on H₄ over the basis 2·1, g/2,
h/3, gh/5, where the product, the coproduct and H₄*'s coproduct have
denominators; rescaling a basis changes no identity's truth, so the lists
agree, while a scale factor dropped on either side of an identity changes
them. The cocycle twist is compared with the Fraction loop it replaced, on
carriers whose coaction and product have denominators, and (φ⊗φ)(r_t) on
each corrupted φ with the dense Fraction loop. The quasitriangular check is
pinned the same way on R_t of H₄, R_N of E(2) and the canonical R of D(H₄),
with the checks' Fraction loops as they were before they read the integer
coproduct: one coefficient of R bumped at 1⊗1 (the counit laws) or at a
pair of counit-zero basis vectors (the coproduct laws), R = 1⊗1 (only
R·Δ = Δ^cop·R can fail) and one coefficient of R⁻¹ bumped; R_t and R_N are
repeated on H₄ and E(2) over a rescaled basis.
"""

import hashlib
import json
from fractions import Fraction as Q

import pytest
from conftest import (
    coaction_rows,
    counit_vec,
    dense,
    dense_algebra,
    dense_qt,
    form_matrix,
    int_form,
    mul_basis,
    r_vec,
    unit_vec,
    yd_rho,
)
from test_integer_scaling import H4_SCALES, _rescaled_hopf, _transported

from hopfbrauer.e2 import build_e2, build_RN
from hopfbrauer.hopf import (
    HopfMorphism,
    QTStructure,
    check_coquasitriangular,
    check_hopf_morphism,
    check_quasitriangular,
    dual_hopf,
    push_qt,
)
from hopfbrauer.linalg import Matrix
from hopfbrauer.sweedler import (
    CFamilyDescriptor,
    LazyCocycle,
    build_C,
    build_dh4,
    build_h4,
    build_rt,
    build_rt_form,
    build_sigma,
    check_lazy_cocycle,
    cocycle_twist,
    phi_iso,
)
from hopfbrauer.yd import sharp_product


def _bumped(m, i, j):
    rows = dense(m)
    rows[i][j] += Q(1, 3)
    return Matrix(rows)


def _pin(failures):
    return len(failures), hashlib.sha256(json.dumps(failures).encode()).hexdigest()[:16]


def _reference_push(m, r):
    """(f⊗f)(R) for the matrix m of f, by the dense Fraction loop."""
    n, rows, md = m.cols, m.rows, dense(m)
    out = [Q(0)] * (rows * rows)
    for i in range(n):
        for j in range(n):
            for a in range(rows):
                for b in range(rows):
                    out[a * rows + b] += r[i * n + j] * md[a][i] * md[b][j]
    return out


def _congruent(m, s):
    """Pᵀ m P for P = diag(s): the bilinear form m on the basis s_i·e_i."""
    md = dense(m)
    return Matrix([[s[i] * s[j] * md[i][j] for j in range(len(s))] for i in range(len(s))])


# (t, corrupted tensor, bumped entry) -> (failures, digest, data["cotriangular"])
COQT_PINS = {
    (Q(0), "form", None): (0, "4f53cda18c2baa0c", True),
    (Q(0), "form", (1, 1)): (7, "44b79d0288094ba9", False),
    (Q(0), "form", (2, 3)): (9, "6deb487c2c16469b", False),
    (Q(0), "form", (3, 0)): (14, "727162cc43f56ac9", False),
    (Q(0), "inverse", (0, 0)): (1, "c32cd2241619be9c", False),
    (Q(0), "inverse", (3, 2)): (1, "0e7b42f35442aeff", False),
    (Q(-3, 2), "form", None): (0, "4f53cda18c2baa0c", True),
    (Q(-3, 2), "form", (1, 1)): (17, "8d76deca64e33cec", False),
    (Q(-3, 2), "form", (2, 3)): (9, "6deb487c2c16469b", False),
    (Q(-3, 2), "form", (3, 0)): (18, "52a6264c2f07e1ff", False),
    (Q(-3, 2), "inverse", (0, 0)): (3, "f6f42ac0a5687378", False),
    (Q(-3, 2), "inverse", (3, 2)): (1, "0e7b42f35442aeff", False),
}


@pytest.mark.parametrize("case", COQT_PINS)
def test_coquasitriangular_failures_are_pinned(case):
    t, which, bump = case
    ct = build_rt_form(t)
    form, inv = form_matrix(*ct.int_pairs), form_matrix(*ct.int_inv)
    if bump is not None:
        if which == "form":
            form = _bumped(form, *bump)
        else:
            inv = _bumped(inv, *bump)
    h4 = build_h4()
    rep = check_coquasitriangular(h4, QTStructure(h4.dual, int_form(form), int_form(inv)))
    assert _pin(rep.failures) + (rep.data["cotriangular"],) == COQT_PINS[case]
    scaled = _rescaled_hopf(h4, H4_SCALES)
    assert scaled.alg.int_sp[0] > 1 and scaled.int_cop[0] > 1
    moved = QTStructure(scaled.dual, int_form(_congruent(form, H4_SCALES)), int_form(_congruent(inv, H4_SCALES)))
    rescaled = check_coquasitriangular(scaled, moved)
    assert rescaled.failures == rep.failures
    assert rescaled.data == rep.data


# (t, bumped entry of σ_t) -> (failures, digest)
SIGMA_PINS = {
    (Q(0), None): (0, "4f53cda18c2baa0c"),
    (Q(0), (2, 2)): (6, "4a42d8523888607f"),
    (Q(0), (0, 1)): (9, "d46f6dd4dc80bac9"),
    (Q(0), (1, 1)): (4, "e5948a9f95f5b565"),
    (Q(3, 2), None): (0, "4f53cda18c2baa0c"),
    (Q(3, 2), (2, 2)): (6, "4a42d8523888607f"),
    (Q(3, 2), (0, 1)): (17, "ffc281149f007d04"),
    (Q(3, 2), (1, 1)): (10, "15310ea2b306ecdc"),
}


@pytest.mark.parametrize("case", SIGMA_PINS)
def test_lazy_cocycle_failures_are_pinned(case):
    t, bump = case
    table = form_matrix(*build_sigma(t).int_pairs)
    if bump is not None:
        table = _bumped(table, *bump)
    assert _pin(check_lazy_cocycle(LazyCocycle(t, int_form(table))).failures) == SIGMA_PINS[case]


# bumped entry (row, column) of φ -> (failures, digest)
PHI_PINS = {
    None: (0, "4f53cda18c2baa0c"),
    (1, 0): (12, "b4e50436a0d013a1"),
    (2, 1): (4, "f90d85b5ead579a4"),
    (3, 2): (7, "5484c22b9ad762b9"),
    (0, 3): (11, "817ae686c9d18084"),
    (0, 0): (13, "788f8d9fdb2b1e63"),
}


@pytest.mark.parametrize("bump", PHI_PINS)
def test_hopf_morphism_failures_are_pinned(bump):
    phi = phi_iso()
    m = phi.matrix if bump is None else _bumped(phi.matrix, *bump)
    morphism = HopfMorphism(phi.source, phi.target, m, name="phi")
    failures = check_hopf_morphism(morphism).failures
    assert _pin(failures) == PHI_PINS[bump]
    rt = build_rt(Q(-5, 3))
    den, pushed = push_qt(morphism, rt)
    assert [Q(pushed.get(divmod(k, 4), 0), den) for k in range(16)] == _reference_push(m, r_vec(rt))
    # φ from H₄ on the basis s_i·e_i to its dual on the basis e_i*/s_i
    s = H4_SCALES
    source = _rescaled_hopf(build_h4(), s)
    target = dual_hopf(source)
    assert target.alg.int_sp[0] > 1 and target.int_cop[0] > 1
    md = dense(m)
    moved = Matrix([[s[k] * s[j] * md[k][j] for j in range(4)] for k in range(4)])
    assert check_hopf_morphism(HopfMorphism(source, target, moved, name="phi")).failures == failures


def _reference_twist(a, sigma):
    """x•y = x₍₀₎y₍₀₎σ(x₍₁₎⊗y₍₁₎) by the dense Fraction loop."""
    alg, s = a.alg, dense(form_matrix(*sigma.int_pairs))
    mult = [[[Q(0)] * alg.dim for _ in range(alg.dim)] for _ in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            for a0, k0, c0 in yd_rho(a)[i]:
                for b0, l0, c1 in yd_rho(a)[j]:
                    for p, v in mul_basis(alg, a0, b0):
                        mult[i][j][p] += c0 * c1 * s[k0][l0] * v
    return dense_algebra(alg.basis, unit_vec(alg), mult)


def _twist_input(name):
    a = build_C(CFamilyDescriptor(Q(3, 4), Q(0), Q(1)))
    if name == "C":
        return a
    # a noncommutative carrier, then the same on the basis r_j·e_j
    a = sharp_product(a, build_C(CFamilyDescriptor(Q(-2, 5), Q(9, 4), Q(1, 3))))
    return a if name == "C#C" else _transported(a, build_h4(), [1, 1, 1, 1], [Q(7, 3), Q(2, 5), 1, 3])


@pytest.mark.parametrize("name", ["C", "C#C", "C#C rescaled"])
@pytest.mark.parametrize("t", [Q(0), Q(5, 3)])
def test_cocycle_twist_equals_the_fraction_loop(name, t):
    a = _twist_input(name)
    assert name == "C" or a.int_rho[0] > 1
    twisted = cocycle_twist(a, build_sigma(t))
    assert twisted.alg.same_product(_reference_twist(a, build_sigma(t)))
    assert coaction_rows(twisted) == coaction_rows(a)


E2_SCALES = [Q(3), Q(1, 2), Q(2, 5), Q(1, 3), Q(7), Q(1, 4), Q(5, 2), Q(1, 6)]

QT_CASES = {
    "R_t": (build_h4, lambda: build_rt(Q(-3, 2)), H4_SCALES),
    "R_N": (build_e2, build_RN, E2_SCALES),
    "D(H4)": (lambda: build_dh4()[0], lambda: build_dh4()[1], None),
}


def _corrupted_qt(h, qt, kind):
    """(R, R⁻¹) of ``qt`` with the corruption ``kind``, as dense lists."""
    n = h.dim
    r, r_inv = list(r_vec(qt)), list(r_vec(qt, inverse=True))
    zero = [i for i in range(n) if not counit_vec(h)[i]]
    if kind == "counit":
        r[0] += Q(1, 3)
    elif kind == "coproduct":
        r[zero[0] * n + zero[-1]] += Q(1, 3)
    elif kind == "1⊗1":
        r = r_inv = [a * b for a in unit_vec(h.alg) for b in unit_vec(h.alg)]
    elif kind == "inverse":
        r_inv[0] += Q(1, 3)
    return r, r_inv


def _moved(r, s):
    """R on the basis s_i·e_i ⊗ s_j·e_j."""
    n = len(s)
    return [c / (s[k // n] * s[k % n]) for k, c in enumerate(r)]


# (structure, corruption) -> (failures, digest, data["triangular"])
QT_PINS = {
    ("R_t", None): (0, "4f53cda18c2baa0c", True),
    ("R_t", "counit"): (7, "766c54b2628dfa15", False),
    ("R_t", "coproduct"): (3, "1ba6967ca55fe9cd", False),
    ("R_t", "1⊗1"): (2, "57ba085ffd28e4b2", True),
    ("R_t", "inverse"): (1, "fea1abd0c9be3026", False),
    ("R_N", None): (0, "4f53cda18c2baa0c", False),
    ("R_N", "counit"): (11, "5fbbda5c281019c4", False),
    ("R_N", "coproduct"): (6, "7b41a6fb9a8a2ebf", False),
    ("R_N", "1⊗1"): (6, "3acdede9769beeb8", True),
    ("R_N", "inverse"): (1, "fea1abd0c9be3026", False),
    ("D(H4)", None): (0, "4f53cda18c2baa0c", False),
    ("D(H4)", "counit"): (15, "a725ade3dc0a59b9", False),
    ("D(H4)", "coproduct"): (15, "d870c51eb986cc4a", False),
    ("D(H4)", "1⊗1"): (12, "f666d9a85e0ed403", True),
    ("D(H4)", "inverse"): (1, "fea1abd0c9be3026", False),
}


@pytest.mark.parametrize("case", QT_PINS)
def test_quasitriangular_failures_are_pinned(case):
    name, kind = case
    build, build_qt, scales = QT_CASES[name]
    h = build()
    r, r_inv = _corrupted_qt(h, build_qt(), kind)
    rep = check_quasitriangular(h, dense_qt(h, r, r_inv))
    assert _pin(rep.failures) + (rep.data["triangular"],) == QT_PINS[case]
    if scales is not None:
        scaled = _rescaled_hopf(h, scales)
        assert scaled.alg.int_sp[0] > 1 and scaled.int_cop[0] > 1
        rescaled = check_quasitriangular(scaled, dense_qt(scaled, _moved(r, scales), _moved(r_inv, scales)))
        assert rescaled.failures == rep.failures
        assert rescaled.data == rep.data
