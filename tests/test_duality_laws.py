"""The coquasitriangular check is the quasitriangular check on H*: its
failure lists are read off the residuals of R_r = Σ r(e_i⊗e_j)·e_i*⊗e_j*.
These tests compare them with ``reference.coqt_laws``, which checks r's own
laws itemized over ℚ, on seeded corruptions of r_t and r_t⁻¹ (one or two
entries bumped) at several t, on H₄ and on H₄ over the rescaled basis of
``test_integer_scaling``; and they pin that every reader of an R or an r
refuses one built on another Hopf algebra, whose indices it would read in
the wrong basis, as ``sharp_product`` refuses two objects over different
Hopf algebras."""

import random
from fractions import Fraction as Q

import pytest
from conftest import dense, form_matrix, int_form
from test_coqt_failures import _congruent
from test_integer_scaling import H4_SCALES, _rescaled_hopf

import reference
from hopfbrauer.e2 import build_c_e2, build_e2, build_RN
from hopfbrauer.hopf import CoQTStructure, check_coquasitriangular, check_quasitriangular, push_qt
from hopfbrauer.linalg import Matrix
from hopfbrauer.sweedler import CFamilyDescriptor, build_C, build_h4, build_rt, build_rt_form, phi_iso
from hopfbrauer.yd import braiding_psi, induced_action, induced_coaction, sharp_product

TS = [Q(0), Q(1), Q(-3, 2), Q(5, 2), Q(7, 3)]
SEEDS = range(24)
# r(1⊗1) and r(1⊗1) once more, from the law r(x⊗1) at x = 1: two equal
# messages, both kept; r(1⊗h) before r(h⊗1), the two counit laws at one x;
# then r⁻¹ alone at 1⊗1
FIXED = {
    "r at 1⊗1": (Q(3, 2), [(0, 0, 0, Q(1, 3))]),
    "r at 1⊗h and h⊗1": (Q(1), [(0, 0, 2, Q(1, 3)), (0, 2, 0, Q(-1, 2))]),
    "r⁻¹ at 1⊗1": (Q(0), [(1, 0, 0, Q(-2))]),
}


def _corrupted(case):
    """(r, r⁻¹) as dense Fraction rows: r_t and r_t⁻¹ with the bumps of a
    ``FIXED`` case, or one or two seeded entries, of either, moved by a
    seeded nonzero rational."""
    if case in FIXED:
        t, bumps = FIXED[case]
    else:
        rng = random.Random(case)
        t = rng.choice(TS)
        bumps = [(rng.randrange(2), rng.randrange(4), rng.randrange(4),
                  Q(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))) for _ in range(rng.choice((1, 2)))]
    ct = build_rt_form(t)
    rows = [dense(form_matrix(*ct.int_table)), dense(form_matrix(*ct.int_inv))]
    for which, i, j, step in bumps:
        rows[which][i][j] += step
    return rows


def _checked(h, r, r_inv):
    rep = check_coquasitriangular(h, CoQTStructure(h, int_form(Matrix(r)), int_form(Matrix(r_inv))))
    return rep.failures, rep.data["cotriangular"]


@pytest.mark.parametrize("case", [*SEEDS, *FIXED])
def test_coqt_failures_equal_the_itemized_laws(case):
    r, r_inv = _corrupted(case)
    want = reference.coqt_laws(build_h4(), r, r_inv), r_inv == [list(col) for col in zip(*r)]
    assert _checked(build_h4(), r, r_inv) == want
    # the same form on the basis s_i·e_i, where H₄'s tables have denominators
    scaled = _rescaled_hopf(build_h4(), H4_SCALES)
    moved = [dense(_congruent(Matrix(m), H4_SCALES)) for m in (r, r_inv)]
    assert reference.coqt_laws(scaled, *moved) == want[0]
    assert _checked(scaled, *moved) == want


def test_the_seeded_corruptions_break_every_law():
    # each law of r fails on some seed, and on some seed r(ab⊗c) and r(a⊗bc)
    # fail at one triple, so their interleaved order is compared too
    lists = [reference.coqt_laws(build_h4(), *_corrupted(seed)) for seed in SEEDS]
    messages = {f for failures in lists for f in failures}
    assert {"r(g⊗1) ≠ ε", "r(1⊗gh) ≠ ε"} <= messages
    for kind in ("r(ab⊗c)", "r(a⊗bc)", "r-commutation", "convolution inverse"):
        assert any(f.startswith(kind) for f in messages), kind
    triples = [[f.split(" at ")[1] for f in failures if f.startswith(("r(ab⊗c)", "r(a⊗bc)"))] for failures in lists]
    assert any(len(t) != len(set(t)) for t in triples)
    assert reference.coqt_laws(build_h4(), *_corrupted("r at 1⊗1"))[:2] == ["r(1⊗1) ≠ ε"] * 2
    assert reference.coqt_laws(build_h4(), *_corrupted("r at 1⊗h and h⊗1"))[:2] == ["r(1⊗h) ≠ ε", "r(h⊗1) ≠ ε"]


def _c_h4():
    return build_C(CFamilyDescriptor(Q(1), Q(1), Q(1)))


# each reader of R or r, given one built on another Hopf algebra
MISMATCHED = {
    # R_t of H₄ read in E(2)'s basis passed before
    "check_quasitriangular R_t on E(2)": lambda: check_quasitriangular(build_e2(), build_rt(0)),
    "check_quasitriangular R_N on H4": lambda: check_quasitriangular(build_h4(), build_RN()),
    "check_quasitriangular R_t on rescaled H4": lambda: check_quasitriangular(
        _rescaled_hopf(build_h4(), H4_SCALES), build_rt(0)),
    "check_coquasitriangular r_t on E(2)": lambda: check_coquasitriangular(build_e2(), build_rt_form(0)),
    "induced_coaction R_N on C": lambda: induced_coaction(_c_h4(), build_RN()),
    "induced_action r_t on C@E2": lambda: induced_action(build_c_e2(1, 0, 0), build_rt_form(0)),
    "braiding_psi R_N on C": lambda: braiding_psi(_c_h4(), _c_h4(), build_RN()),
    "braiding_psi R_t on C, C@E2": lambda: braiding_psi(_c_h4(), build_c_e2(1, 0, 0), build_rt(0)),
    "push_qt R_N along phi": lambda: push_qt(phi_iso(), build_RN()),
    # the # product's own guard is the same rule
    "sharp_product C, C@E2": lambda: sharp_product(_c_h4(), build_c_e2(1, 0, 0)),
}


@pytest.mark.parametrize("call", MISMATCHED.values(), ids=MISMATCHED)
def test_a_structure_of_another_hopf_algebra_is_refused(call):
    with pytest.raises(ValueError, match="is built on HopfAlgebra"):
        call()
