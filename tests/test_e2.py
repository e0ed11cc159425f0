import random
from fractions import Fraction as Q

import pytest
import reference
from conftest import (
    action_matrices,
    coaction_rows,
    column,
    counit_vec,
    dense_yd,
    dh4_named,
    diag,
    operator_to_vec,
    r_vec,
    rank,
    zero_matrix,
)

from hopfbrauer.algebra import endomorphism_algebra, is_central_simple
from hopfbrauer.e2 import (
    braiding_decomposition_residual,
    build_c_e2,
    build_e2,
    build_e2_module,
    build_RN,
    bq_grad_member,
    e2_action_from_generators,
    f0_g0_matrices,
    fg_decomposition_residuals,
    is_graded_central_simple,
    kernel_witness,
    not_subgroup_demo,
    parity_object,
    prop62_instance_check,
    restrict_along,
    t_morphism,
    theorem61_check,
    theta,
    witness_end_p,
    witness_p_module,
)
from hopfbrauer.hopf import HopfMorphism, check_hopf_morphism, check_quasitriangular, push_qt
from hopfbrauer.linalg import Matrix, is_zero_vec, over, scaled_vecs
from hopfbrauer.sweedler import CFamilyDescriptor, build_C, build_dh4, build_h4, build_rt
from hopfbrauer.yd import (
    GradingError,
    YDObject,
    action_grading,
    check_module,
    check_module_algebra,
    check_yd_algebra,
    check_yd_module,
    double_to_yd,
    end_yd,
    fg_maps,
    gradings,
    induced_coaction,
    is_h_azumaya,
    normalized_implementer,
    sharp_product,
    strongly_inner_witness_e2,
)

rng = random.Random(23)


def rnd(nonzero=False):
    n = rng.randint(-9, 9)
    while nonzero and n == 0:
        n = rng.randint(-9, 9)
    return Q(n, rng.randint(1, 9))


def test_rn_is_quasitriangular():
    rep = check_quasitriangular(build_e2(), build_RN())
    assert rep.ok
    assert rep.data["triangular"] is False


def test_rn_coefficients():
    rn = build_RN()
    assert r_vec(rn)[2 * 8 + 5] == Q(1, 2)   # x₁ ⊗ cx₂
    assert r_vec(rn)[3 * 8 + 4] == Q(-1, 2)  # cx₁ ⊗ x₂
    assert sum(1 for c in r_vec(rn) if c) == 8


def test_rn_inverse_is_the_solved_one():
    # R_N⁻¹ = ½(1⊗1 + 1⊗c + c⊗1 − c⊗c − x₁⊗cx₂ + x₁⊗x₂ + cx₁⊗cx₂ + cx₁⊗x₂),
    # written out by hand
    half = Q(1, 2)
    terms = {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half,
             (2, 5): -half, (2, 4): half, (3, 5): half, (3, 4): half}
    assert r_vec(build_RN(), inverse=True) == [terms.get(divmod(k, 8), 0) for k in range(64)]


def test_t_is_quasitriangular_surjection():
    double, canonical = build_dh4()
    t = t_morphism()
    assert check_hopf_morphism(t).ok
    assert push_qt(t, canonical) == build_RN().int_pairs
    assert rank(t.matrix) == 8


def test_t_generator_images():
    t = t_morphism()
    e2 = build_e2()
    assert t.matrix.apply(dh4_named("g")) == e2.alg.basis_vec(1)        # c
    assert t.matrix.apply(dh4_named("phi_g")) == e2.alg.basis_vec(1)    # c
    assert t.matrix.apply(dh4_named("h")) == e2.alg.basis_vec(2)        # x1
    assert t.matrix.apply(dh4_named("phi_h")) == e2.alg.basis_vec(5)    # cx2


def test_theta_morphisms_and_pushforwards():
    rn = build_RN()
    for lam, mu in ((Q(1), Q(1)), (Q(0), Q(0)), (Q(3), Q(-2, 5))):
        th = theta(lam, mu)
        assert check_hopf_morphism(th).ok
        assert push_qt(th, rn) == build_rt(lam * mu).int_pairs


def test_restrict_along_identity():
    e2 = build_e2()
    a = build_c_e2(1, 2, 3)
    out = restrict_along(HopfMorphism(e2, e2, Matrix.identity(8)), a)
    assert action_matrices(out) == action_matrices(a)


def test_pullback_of_c_family():
    lam, mu, a = Q(3), Q(5), Q(7)
    c_h4 = build_C(CFamilyDescriptor(a, 1, lam * mu))
    pulled = restrict_along(theta(lam, mu), c_h4, build_RN())
    assert check_yd_algebra(pulled).ok
    direct = build_c_e2(a, lam, mu)
    assert action_matrices(pulled) == action_matrices(direct) and coaction_rows(pulled) == coaction_rows(direct)
    back = double_to_yd(restrict_along(t_morphism(), pulled), build_h4())
    expect = build_C(CFamilyDescriptor(a, lam, mu))
    assert action_matrices(back) == action_matrices(expect) and coaction_rows(back) == coaction_rows(expect)


def test_theta00_gives_trivial_x_actions():
    a = build_C(CFamilyDescriptor(Q(5), Q(0), Q(0)))  # Brauer-Wall type representative
    pulled = restrict_along(theta(0, 0), a, build_RN())
    e2 = build_e2()
    assert action_matrices(pulled)[e2.meta["x1"]].is_zero()
    assert action_matrices(pulled)[e2.meta["x2"]].is_zero()


def test_bq_grad_membership():
    assert bq_grad_member(build_C(CFamilyDescriptor(Q(2), Q(3), Q(4))))
    p_yd = double_to_yd(witness_p_module(), build_h4())
    assert check_yd_module(p_yd).ok
    assert not gradings(p_yd).equal
    end_p_yd = end_yd(p_yd, "plain")
    assert gradings(end_p_yd).equal


def test_kernel_witness_bundle():
    kw = kernel_witness()
    assert kw.report.ok, kw.report.failures[:5]
    assert all(kw.steps.values())
    assert set(kw.steps) == {
        "i: P is a D(H4)-module",
        "ii: P is not an E(2)-module",
        "iii: End(P) is an E(2)-module algebra",
        "iv: End(P) is (E(2),R_N)-Azumaya",
        "v: strongly-inner search fails on both branches",
        "vi: g and φ(g) agree on P⊗P",
    }


def test_witness_matrix_identities():
    kw = kernel_witness()
    u, w, big_u, big_w = kw.u, kw.w, kw.big_u, kw.big_w
    assert u @ u == Matrix.identity(2)
    assert (big_w @ big_w).is_zero()
    assert (u @ big_w + big_w @ u).is_zero()
    assert big_u == -1 * u
    # [φ(h), h] acts on P as φ(g) − g = −2u
    assert big_w @ w - w @ big_w == -2 * u


def test_witness_strong_inner_branches_fail_at_commutation():
    strong = strongly_inner_witness_e2(witness_end_p())
    assert not strong.strongly_inner
    assert len(strong.branch_failures) == 2
    assert all("(cx₂)x₁ − x₁(cx₂)" in f for f in strong.branch_failures)


def _inner_end(u, w, big_w):
    """End(kᵈ) with c·f = ufu, x₁·f = wfu + fuw, (cx₂)·f = Wf − ufuW (u² = 1),
    the action of the algebra map c ↦ u, x₁ ↦ w, cx₂ ↦ W when that map
    respects the E(2) relations."""
    d = u.rows
    alg = endomorphism_algebra(d)

    def op_map(fun):
        cols = []
        for q in range(d):
            for p in range(d):
                e = Matrix([[int((r, s) == (p, q)) for s in range(d)] for r in range(d)])
                cols.append(operator_to_vec(fun(e)))
        return Matrix.from_cols(cols)

    c_mat = op_map(lambda f: u @ f @ u)
    x1_mat = op_map(lambda f: w @ f @ u + f @ u @ w)
    cx2_mat = op_map(lambda f: big_w @ f - u @ f @ u @ big_w)
    images = e2_action_from_generators(*map(_scaled_columns, (c_mat, x1_mat, c_mat @ cx2_mat)))
    return induced_coaction(YDObject.from_int(build_e2(), alg.dim, alg, images), build_RN())


def _columns(m: Matrix) -> list[dict]:
    """The columns of m as sparse vectors."""
    return [{k: v for k, v in enumerate(column(m, j)) if v} for j in range(m.cols)]


def _scaled_columns(m: Matrix) -> tuple[int, list[dict]]:
    """(den, the columns of m times den as integer sparse vectors)."""
    return scaled_vecs(_columns(m))


def test_strongly_inner_witness_of_an_inner_end():
    u = diag([1, -1, 1])
    w = Matrix([[0, 0, 0], [2, 0, 0], [0, 0, 0]])
    big_w = Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    a = _inner_end(u, w, big_w)
    assert check_yd_algebra(a).ok
    strong = strongly_inner_witness_e2(a)
    assert strong.branch_failures == []
    # u, w and W in the matrix-unit basis E_pq at q·3 + p
    assert strong.witness == ([1, 0, 0, 0, -1, 0, 0, 0, 1], [0, 2, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1, 0])


def test_witnesses_of_a_conjugated_inner_end_are_pinned():
    # the maps of the test above with other scalars, conjugated by p, so that
    # u, w and W are no matrix units; values pinned as the solvers gave them
    # when they still multiplied on the Fraction mirrors
    p = Matrix([[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    p_inv = p.inverse()
    u, w, big_w = (p @ m @ p_inv for m in (
        diag([1, -1, 1]), Matrix([[0, 0, 0], [Q(2, 3), 0, 0], [0, 0, 0]]),
        Matrix([[0, 0, 0], [0, 0, Q(-5, 4)], [0, 0, 0]]),
    ))
    a = _inner_end(u, w, big_w)
    u_pin = [1, 0, 0, -4, -1, 0, 0, 0, 1]
    assert normalized_implementer(a, 1) == u_pin
    strong = strongly_inner_witness_e2(a)
    assert strong.branch_failures == []
    assert strong.witness == (
        u_pin,
        [Q(4, 3), Q(2, 3), 0, Q(-8, 3), Q(-4, 3), 0, 0, 0, 0],
        [Q(5, 2), Q(5, 4), 0, -5, Q(-5, 2), 0, Q(-5, 2), Q(-5, 4), 0],
    )


def test_end_p_actions_match_printed_formulas():
    # the canonical End(P) structure reproduces c·f = ufu⁻¹,
    # x₁·f = wfu⁻¹ + fuw, (cx₂)·f = Wf − UfU⁻¹W
    end_p = witness_end_p()
    canonical = end_yd(witness_p_module())
    for e2_idx, name in ((1, "g"), (2, "h"), (5, "phi_h")):
        named = dh4_named(name)
        expected = zero_matrix(4, 4)
        for i, c in enumerate(named):
            if c:
                expected = expected + action_matrices(canonical)[i] * c
        assert action_matrices(end_p)[e2_idx] == expected


def test_gcs_examples():
    assert is_graded_central_simple(build_c_e2(1, 3, 2))
    prod = sharp_product(build_c_e2(1, 3, 2), build_c_e2(1, 1, 5))
    assert not is_graded_central_simple(prod)
    # matrix algebra with trivial grading and trivial x-actions
    e2 = build_e2()
    end = endomorphism_algebra(2)
    action = [Matrix.identity(4) * counit_vec(e2)[i] for i in range(8)]
    triv = induced_coaction(dense_yd(e2, end.dim, end, action), build_RN())
    assert check_yd_algebra(triv).ok
    assert is_graded_central_simple(triv)
    rep = theorem61_check(triv)
    assert rep.equivalent and rep.addendum_holds and rep.central_simple and rep.e2_inner
    assert rep.x1_witness == [Q(0)] * 4


def test_f_equals_f0_when_an_x_acts_trivially():
    for t1, t2 in ((Q(0), Q(4)), (Q(3), Q(0))):
        a = build_c_e2(Q(2), t1, t2)
        f, g = fg_maps(a)
        f0, g0 = f0_g0_matrices(a)
        assert f == f0 and g == g0


def test_theorem61_on_inner_instance():
    a = build_c_e2(1, 1, 1)
    assert is_h_azumaya(a)
    rep = theorem61_check(a)
    assert rep.x1_inner and rep.x2_inner and rep.graded_central_simple
    assert rep.equivalent and rep.addendum_holds
    # witness solves x₁·z = v(c·z) − zv with v = −x/2
    assert rep.x1_witness == [Q(0), Q(-1, 2)]


def test_theorem61_on_noninner_instance():
    prod = sharp_product(build_c_e2(1, 3, 2), build_c_e2(1, 1, 5))
    assert is_h_azumaya(prod)
    rep = theorem61_check(prod)
    assert not rep.x1_inner and not rep.x2_inner and not rep.graded_central_simple
    assert rep.equivalent and rep.addendum_holds


def test_not_subgroup_demo():
    for t, q in ((Q(2), Q(3)), (Q(3), Q(0)), (Q(-1), Q(1))):
        ns = not_subgroup_demo(t, q)
        assert ns.closure_fails
        assert ns.super_central_witness is not None
    with pytest.raises(ValueError):
        not_subgroup_demo(1, 3)
    with pytest.raises(ValueError):
        not_subgroup_demo(3, 2)


def test_super_central_element_signs():
    # (X−Y)Z = (−1)^{|Z|} Z(X−Y) for Z ∈ {X, Y} in the 2a = XY+YX case
    prod = sharp_product(build_c_e2(1, 2, 2), build_c_e2(1, 1, 3))
    alg = prod.alg
    xmy = [Q(0), Q(-1), Q(1), Q(0)]
    for z in (2, 1):  # X = x#1, Y = 1#y
        lhs = alg.mul_vec(xmy, alg.basis_vec(z))
        rhs = [-v for v in alg.mul_vec(alg.basis_vec(z), xmy)]
        assert lhs == rhs


def test_prop62_instances():
    qmod = build_e2_module((1, 0))
    inner = prop62_instance_check(build_c_e2(1, 1, 1), qmod)
    assert inner["agree"] and inner["x1"][0] and inner["x1"][1]
    triv = prop62_instance_check(build_c_e2(1, 0, 0), qmod)
    assert triv["agree"]
    prod = sharp_product(build_c_e2(1, 3, 2), build_c_e2(1, 1, 5))
    noninner = prop62_instance_check(prod, qmod)
    assert noninner["agree"] and not noninner["x1"][0] and not noninner["x1"][1]


def test_braiding_decomposition_random():
    e2 = build_e2()
    c_idx = e2.meta["c"]
    for _ in range(20):
        v = build_e2_module((rnd(), rnd()))
        w = build_c_e2(rnd(True), rnd(), rnd())
        pv, pw = action_grading(v, c_idx), action_grading(w, c_idx)
        for piv in (0, 1):
            for piw in (0, 1):
                vv = [Q(0), Q(0)]
                vv[[i for i in range(2) if pv[i] == piv][0]] = rnd(True)
                wv = [Q(0), Q(0)]
                wv[[i for i in range(2) if pw[i] == piw][0]] = rnd(True)
                assert is_zero_vec(braiding_decomposition_residual(v, w, vv, wv))


def test_fg_decomposition_random():
    e2 = build_e2()
    c_idx = e2.meta["c"]
    for k in range(12):
        if k % 3:
            a = build_c_e2(rnd(True), rnd(), rnd())
        else:
            a = sharp_product(build_c_e2(rnd(True), rnd(), rnd()), build_c_e2(rnd(True), rnd(), rnd()))
        parity = action_grading(a, c_idx)
        for _ in range(4):
            vecs = []
            for _ in range(3):
                p = rng.randint(0, 1)
                idxs = [i for i in range(a.dim) if parity[i] == p]
                v = [Q(0)] * a.dim
                for i in idxs:
                    v[i] = rnd()
                if is_zero_vec(v):
                    v[idxs[0]] = Q(1)
                vecs.append(v)
            rf, rg = fg_decomposition_residuals(a, *vecs)
            assert is_zero_vec(rf) and is_zero_vec(rg)


def test_fg_decomposition_rejects_inhomogeneous_elements():
    a = build_c_e2(Q(2), Q(3), Q(-1))
    even, odd, mixed = [Q(1), Q(0)], [Q(0), Q(1)], [Q(1), Q(1)]
    assert action_grading(a, build_e2().meta["c"]) == (0, 1)
    for k in range(3):
        vecs = [even, odd, odd]
        vecs[k] = mixed
        with pytest.raises(ValueError, match="not homogeneous"):
            fg_decomposition_residuals(a, *vecs)


def test_parity_view_is_a_yd_algebra_over_kz2():
    a = build_c_e2(Q(2), Q(3), Q(-1))
    for obj in (a, sharp_product(a, build_c_e2(5, 1, 2)), witness_end_p()):
        view = parity_object(obj)
        assert view.hopf.dim == 2 and view.alg is obj.alg
        assert check_yd_algebra(view).ok
        assert gradings(view).equal and gradings(view).action_parity == action_grading(obj, build_e2().meta["c"])
    swap = Matrix([[0, 1], [1, 0]])
    not_graded = dense_yd(build_e2(), 2, a.alg, [Matrix.identity(2), swap] + [zero_matrix(2, 2)] * 6)
    with pytest.raises(GradingError):
        f0_g0_matrices(not_graded)


def test_end_p_is_azumaya_and_module_checks():
    end_p = witness_end_p()
    assert check_module_algebra(end_p).ok
    assert check_yd_algebra(end_p).ok
    assert is_h_azumaya(end_p)
    assert is_central_simple(end_p.alg)


def test_p_module_but_not_e2():
    p = witness_p_module()
    assert check_module(p).ok
    named = build_dh4()[0].meta["named"]
    assert p.act_matrix(named["g"]) != p.act_matrix(named["phi_g"])


def test_braiding_with_parity_structure_is_graded_flip():
    # the quasitriangular element of the zero 2×2 matrix is the parity flip
    from fractions import Fraction
    from hopfbrauer.hopf import qt_structure
    from hopfbrauer.yd import braiding_psi, graded_flip

    e2 = build_e2()
    half = Fraction(1, 2)
    r0 = [Fraction(0)] * 64
    for (i, j), c in {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half}.items():
        r0[i * 8 + j] = c
    rt0 = qt_structure(e2, r0)
    v = build_c_e2(2, 3, 4)
    w = build_e2_module((5, 7))
    psi = braiding_psi(v, w, rt0)
    assert psi == graded_flip((0, 1), (0, 1))


def test_prop62_with_trivial_module():
    triv_q = build_e2_module((0, 0))
    res = prop62_instance_check(build_c_e2(1, 0, 0), triv_q)
    assert res["agree"] and res["x1"][0] and res["x2"][0]


def test_e2_action_from_generators_matches_the_monomial_loop():
    gen = random.Random(41)

    def rnd_matrix():
        return Matrix([[Q(gen.randint(-9, 9), gen.randint(1, 9)) for _ in range(2)] for _ in range(2)])

    cases = [tuple(rnd_matrix() for _ in range(3)) for _ in range(20)]
    end_p = action_matrices(witness_end_p())
    cases.append((end_p[1], end_p[2], end_p[4]))  # c, x₁, x₂ on End(P)
    assert end_p[1].rows == 4
    for c_mat, x1_mat, x2_mat in cases:
        den, images = e2_action_from_generators(*map(_scaled_columns, (c_mat, x1_mat, x2_mat)))
        assert [[over(v, den) for v in row] for row in images] == reference.e2_action(
            *map(_columns, (c_mat, x1_mat, x2_mat))
        )
