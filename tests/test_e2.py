import random
from fractions import Fraction as Q

import pytest

from hopfbrauer.algebra import endomorphism_algebra, is_central_simple
from hopfbrauer.e2 import (
    braiding_decomposition_residual,
    build_c_e2,
    build_e2,
    build_e2_module,
    build_RN,
    bq_grad_member,
    f0_g0_matrices,
    fg_decomposition_residuals,
    is_graded_central_simple,
    kernel_witness,
    not_subgroup_demo,
    prop62_instance_check,
    restrict_along,
    t_morphism,
    theorem61_check,
    theta,
    witness_end_p,
    witness_p_module,
)
from hopfbrauer.hopf import HopfMorphism, check_hopf_morphism, check_quasitriangular, push_qt
from hopfbrauer.linalg import Matrix, is_zero_vec
from hopfbrauer.sweedler import CFamilyDescriptor, build_C, build_dh4, build_h4, build_rt, dh4_named
from hopfbrauer.yd import (
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
    assert rn.r[2 * 8 + 5] == Q(1, 2)   # x₁ ⊗ cx₂
    assert rn.r[3 * 8 + 4] == Q(-1, 2)  # cx₁ ⊗ x₂
    assert sum(1 for c in rn.r if c) == 8


def test_t_is_quasitriangular_surjection():
    double, canonical = build_dh4()
    t = t_morphism()
    assert check_hopf_morphism(t).ok
    assert push_qt(t, canonical.r) == build_RN().r
    assert Matrix(t.matrix.data).rank() == 8


def test_t_generator_images():
    t = t_morphism()
    e2 = build_e2()
    assert t.apply(dh4_named("g")) == e2.alg.basis_vec(1)        # c
    assert t.apply(dh4_named("phi_g")) == e2.alg.basis_vec(1)    # c
    assert t.apply(dh4_named("h")) == e2.alg.basis_vec(2)        # x1
    assert t.apply(dh4_named("phi_h")) == e2.alg.basis_vec(5)    # cx2


def test_theta_morphisms_and_pushforwards():
    rn = build_RN()
    for lam, mu in ((Q(1), Q(1)), (Q(0), Q(0)), (Q(3), Q(-2, 5))):
        th = theta(lam, mu)
        assert check_hopf_morphism(th).ok
        assert push_qt(th, rn.r) == build_rt(lam * mu).r


def test_restrict_along_identity():
    e2 = build_e2()
    a = build_c_e2(1, 2, 3)
    out = restrict_along(HopfMorphism(e2, e2, Matrix.identity(8)), a)
    assert out.action == a.action


def test_pullback_of_c_family():
    lam, mu, a = Q(3), Q(5), Q(7)
    c_h4 = build_C(CFamilyDescriptor(a, 1, lam * mu))
    pulled = restrict_along(theta(lam, mu), c_h4, build_RN())
    assert check_yd_algebra(pulled).ok
    direct = build_c_e2(a, lam, mu)
    assert pulled.action == direct.action and pulled.coaction == direct.coaction
    back = double_to_yd(restrict_along(t_morphism(), pulled), build_h4())
    expect = build_C(CFamilyDescriptor(a, lam, mu))
    assert back.action == expect.action and back.coaction == expect.coaction


def test_theta00_gives_trivial_x_actions():
    a = build_C(CFamilyDescriptor(Q(5), Q(0), Q(0)))  # Brauer-Wall type representative
    pulled = restrict_along(theta(0, 0), a, build_RN())
    e2 = build_e2()
    assert pulled.action[e2.meta["x1"]].is_zero()
    assert pulled.action[e2.meta["x2"]].is_zero()


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


def test_end_p_actions_match_printed_formulas():
    # the canonical End(P) structure reproduces c·f = ufu⁻¹,
    # x₁·f = wfu⁻¹ + fuw, (cx₂)·f = Wf − UfU⁻¹W
    end_p = witness_end_p()
    canonical = end_yd(witness_p_module())
    for e2_idx, name in ((1, "g"), (2, "h"), (5, "phi_h")):
        named = dh4_named(name)
        expected = Matrix.zero(4, 4)
        for i, c in enumerate(named):
            if c:
                expected = expected + canonical.action[i] * c
        assert end_p.action[e2_idx] == expected


def test_gcs_examples():
    assert is_graded_central_simple(build_c_e2(1, 3, 2))
    prod = sharp_product(build_c_e2(1, 3, 2), build_c_e2(1, 1, 5))
    assert not is_graded_central_simple(prod)
    # matrix algebra with trivial grading and trivial x-actions
    e2 = build_e2()
    end = endomorphism_algebra(2)
    action = [Matrix.identity(4) * e2.counit[i] for i in range(8)]
    triv = induced_coaction(YDObject(e2, end.dim, end, action), build_RN())
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


def test_end_p_is_azumaya_and_module_checks():
    end_p = witness_end_p()
    assert check_module_algebra(end_p).ok
    assert check_yd_algebra(end_p).ok
    assert is_h_azumaya(end_p)
    assert is_central_simple(end_p.alg)


def test_p_module_but_not_e2():
    p = witness_p_module()
    assert check_module(p).ok
    assert p.act_matrix(dh4_named("g")) != p.act_matrix(dh4_named("phi_g"))


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
