"""The coquasitriangular and lazy-cocycle checks are laws on H*: their
failure lists are read off the residuals of R_r = Σ r(e_i⊗e_j)·e_i*⊗e_j*
and of Σ = Σ σ(e_i⊗e_j)·e_i*⊗e_j*. These tests compare them with
``reference.coqt_laws`` and ``reference.lazy_cocycle``, which check r's and
σ's own laws itemized over ℚ, on seeded corruptions of r_t and r_t⁻¹, and
of σ_t (one or two entries bumped) at several t, r's on H₄ and on H₄ over
the rescaled basis of ``test_integer_scaling``, with fixed cases that break
each law of σ; and they pin that every reader of an R or an r, and H₄'s
twists, refuse one built on another Hopf algebra, whose indices they would
read in the wrong basis, as ``sharp_product`` refuses two objects over
different Hopf algebras. A form r on H is stored as R_r, a ``QTStructure``
on H*, so a reader of r also refuses an R of H itself."""

import random
from fractions import Fraction as Q

import pytest
from conftest import dense, form_matrix, int_form
from test_coqt_failures import _congruent
from test_integer_scaling import H4_SCALES, _rescaled_hopf

import reference
from hopfbrauer.e2 import build_c_e2, build_e2, build_RN
from hopfbrauer.hopf import QTStructure, check_coquasitriangular, check_quasitriangular, push_qt
from hopfbrauer.linalg import Matrix
from hopfbrauer.sweedler import (
    CFamilyDescriptor,
    LazyCocycle,
    aut_twist,
    build_C,
    build_h4,
    build_rt,
    build_rt_form,
    build_sigma,
    check_lazy_cocycle,
    cocycle_twist,
    phi_iso,
)
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


# σ_t with a law broken: one counit law, σ(1⊗·) and then σ(·⊗1); both
# counit laws, in that order; the cocycle law alone; laziness alone,
# σ_0 + 3·g*⊗g* being the coboundary of the γ with γ(1) = 1, γ(g) = 2,
# γ(h) = γ(gh) = 0
SIGMA_FIXED = {
    "σ at 1⊗g": (Q(1), [(0, 0, 1, Q(1, 3))]),
    "σ at g⊗1": (Q(-3, 2), [(0, 1, 0, Q(-1, 2))]),
    "σ at 1⊗1": (Q(5, 2), [(0, 0, 0, Q(2))]),
    "σ at h⊗h": (Q(7, 3), [(0, 2, 2, Q(1, 3))]),
    "σ at g⊗g, a coboundary": (Q(0), [(0, 1, 1, Q(3))]),
}


def _rt_forms(t):
    ct = build_rt_form(t)
    return ct.int_pairs, ct.int_inv


def _corrupted(case, fixed=FIXED, forms=_rt_forms):
    """The integer ``forms(t)`` (r_t and r_t⁻¹ by default) as dense Fraction
    rows, with the bumps of a ``fixed`` case, or one or two seeded entries,
    of any of them, moved by a seeded nonzero rational."""
    if case in fixed:
        t, bumps = fixed[case]
    else:
        rng = random.Random(case)
        t = rng.choice(TS)
    rows = [dense(form_matrix(*form)) for form in forms(t)]
    if case not in fixed:
        bumps = [(rng.randrange(len(rows)), rng.randrange(4), rng.randrange(4),
                  Q(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))) for _ in range(rng.choice((1, 2)))]
    for which, i, j, step in bumps:
        rows[which][i][j] += step
    return rows


def _sigma(case):
    return _corrupted(case, SIGMA_FIXED, lambda t: (build_sigma(t).int_pairs,))[0]


def _checked(h, r, r_inv):
    rep = check_coquasitriangular(h, QTStructure(h.dual, int_form(Matrix(r)), int_form(Matrix(r_inv))))
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


@pytest.mark.parametrize("case", [*SEEDS, *SIGMA_FIXED])
def test_lazy_cocycle_failures_equal_the_itemized_laws(case):
    sigma = _sigma(case)
    # the check reads σ's table only, not its label t
    assert check_lazy_cocycle(LazyCocycle(None, int_form(Matrix(sigma)))).failures == reference.lazy_cocycle(sigma)


def test_the_sigma_corruptions_break_every_law():
    kinds = {case: [f.split(" at ")[0] for f in reference.lazy_cocycle(_sigma(case))] for case in SIGMA_FIXED}
    assert kinds["σ at 1⊗g"][0] == "σ(1⊗·) ≠ ε" and "σ(·⊗1) ≠ ε" not in kinds["σ at 1⊗g"]
    assert kinds["σ at g⊗1"][0] == "σ(·⊗1) ≠ ε" and "σ(1⊗·) ≠ ε" not in kinds["σ at g⊗1"]
    assert kinds["σ at 1⊗1"][:2] == ["σ(1⊗·) ≠ ε", "σ(·⊗1) ≠ ε"]
    assert set(kinds["σ at h⊗h"]) == {"cocycle condition fails"}
    assert set(kinds["σ at g⊗g, a coboundary"]) == {"laziness fails"}
    seeded = {f.split(" at ")[0] for seed in SEEDS for f in reference.lazy_cocycle(_sigma(seed))}
    assert seeded == {"σ(1⊗·) ≠ ε", "σ(·⊗1) ≠ ε", "cocycle condition fails", "laziness fails"}


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
    # a form on H is R_r on H*: an R of H₄ itself is no form on H₄
    "check_coquasitriangular R_t as a form": lambda: check_coquasitriangular(build_h4(), build_rt(1)),
    "induced_coaction R_N on C": lambda: induced_coaction(_c_h4(), build_RN()),
    "induced_action r_t on C@E2": lambda: induced_action(build_c_e2(1, 0, 0), build_rt_form(0)),
    "induced_action R_t as a form on C": lambda: induced_action(_c_h4(), build_rt(1)),
    "braiding_psi R_N on C": lambda: braiding_psi(_c_h4(), _c_h4(), build_RN()),
    "braiding_psi R_t on C, C@E2": lambda: braiding_psi(_c_h4(), build_c_e2(1, 0, 0), build_rt(0)),
    "push_qt R_N along phi": lambda: push_qt(phi_iso(), build_RN()),
    # the # product's own guard is the same rule
    "sharp_product C, C@E2": lambda: sharp_product(_c_h4(), build_c_e2(1, 0, 0)),
    # H₄'s twists read E(2)'s coaction indices, or its action columns, as H₄'s
    "cocycle_twist C@E2": lambda: cocycle_twist(build_c_e2(1, 1, 1), build_sigma(1)),
    "aut_twist C@E2": lambda: aut_twist(build_c_e2(1, 1, 1), 2),
}


@pytest.mark.parametrize("call", MISMATCHED.values(), ids=MISMATCHED)
def test_a_structure_of_another_hopf_algebra_is_refused(call):
    with pytest.raises(ValueError, match="is built on HopfAlgebra"):
        call()
