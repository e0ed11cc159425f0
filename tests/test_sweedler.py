import random
from fractions import Fraction as Q

import pytest

from conftest import action_matrices, coaction_rows, column, dense, form_matrix
from hopfbrauer import e2
from hopfbrauer.linalg import Matrix, rational_is_square
from hopfbrauer.sweedler import (
    CFamilyDescriptor,
    CProductPresentation,
    TransportShapeError,
    aut_algebra,
    aut_conjugate,
    aut_twist,
    build_C,
    build_h_alpha,
    build_rt,
    build_rt_form,
    build_sigma,
    c_equivalent,
    c_membership,
    c_opposite,
    c_product,
    check_lazy_cocycle,
    classify_bm0,
    cocycle_twist,
    comodule_iso_scale,
    intersection_report,
    module_iso_scale,
    phi_transport,
    psi_transport,
    quaternion_yd_algebra,
    sharp_product_matches_presentation,
    squarefree_part,
    validate_c_iso,
)
from hopfbrauer.yd import (
    YDObject,
    check_comodule,
    check_module,
    check_yd_algebra,
    induced_action,
    is_h_azumaya,
)

rng = random.Random(17)


def rnd(nonzero=False):
    n = rng.randint(-9, 9)
    while nonzero and n == 0:
        n = rng.randint(-9, 9)
    return Q(n, rng.randint(1, 9))


# -- descriptors -------------------------------------------------------------


def test_descriptor_azumaya_flag():
    assert CFamilyDescriptor(1, 1, 0).is_azumaya
    assert not CFamilyDescriptor(0, 0, 0).is_azumaya
    assert not CFamilyDescriptor(3, 2, 3).is_azumaya


def test_build_examples():
    assert check_yd_algebra(build_C(CFamilyDescriptor(1, 1, 0))).ok
    assert is_h_azumaya(build_C(CFamilyDescriptor(1, 1, 0)))
    c000 = build_C(CFamilyDescriptor(0, 0, 0))
    assert check_yd_algebra(c000).ok
    assert not is_h_azumaya(c000)
    c = build_C(CFamilyDescriptor(Q(2), Q(3), Q(5)))
    assert coaction_rows(c)[1][1 * 4 + 1] == 1  # x ⊗ g
    assert coaction_rows(c)[1][0 * 4 + 2] == 5  # s·1 ⊗ h


def test_equivalence_witnesses():
    assert c_equivalent(CFamilyDescriptor(4, 2, 2), CFamilyDescriptor(1, 1, 1)) == 2
    assert c_equivalent(CFamilyDescriptor(1, 1, 0), CFamilyDescriptor(1, -1, 0)) == -1
    assert c_equivalent(CFamilyDescriptor(2, 0, 0), CFamilyDescriptor(1, 0, 0)) is None
    assert c_equivalent(CFamilyDescriptor(4, 0, 0), CFamilyDescriptor(1, 0, 0)) == 2


def test_equivalence_is_equivalence_relation():
    for _ in range(10):
        d = CFamilyDescriptor(rnd(), rnd(), rnd())
        assert c_equivalent(d, d) == 1
        alpha = rnd(True)
        beta = rnd(True)
        d1 = CFamilyDescriptor(alpha**2 * d.a, alpha * d.t, alpha * d.s)
        d2 = CFamilyDescriptor(beta**2 * d1.a, beta * d1.t, beta * d1.s)
        w1 = c_equivalent(d1, d)
        w2 = c_equivalent(d2, d1)
        w = c_equivalent(d2, d)
        assert None not in (w1, w2, w)
        if d != CFamilyDescriptor(0, 0, 0):
            assert abs(w) == abs(w2 * w1) or w == w2 * w1


def test_witnesses_give_structural_isomorphisms():
    for _ in range(8):
        d = CFamilyDescriptor(rnd(), rnd(), rnd())
        alpha = rnd(True)
        d1 = CFamilyDescriptor(alpha**2 * d.a, alpha * d.t, alpha * d.s)
        w = c_equivalent(d1, d)
        assert w is not None and validate_c_iso(d1, d, w)
        wm = module_iso_scale(CFamilyDescriptor(d1.a, d1.t, rnd()), d)
        assert wm is not None and validate_c_iso(CFamilyDescriptor(d1.a, d1.t, d.s * wm), d, wm)
        wc = comodule_iso_scale(CFamilyDescriptor(d1.a, rnd(), d1.s), d)
        assert wc is not None


def test_opposite_descriptor():
    d = CFamilyDescriptor(Q(3), Q(2), Q(5))
    assert c_opposite(d) == CFamilyDescriptor(Q(7), Q(2), Q(5))
    assert c_opposite(CFamilyDescriptor(0, 0, 0)) == CFamilyDescriptor(0, 0, 0)
    for _ in range(5):
        d = CFamilyDescriptor(rnd(), rnd(), rnd())
        assert c_opposite(c_opposite(d)) == d


def test_membership():
    m = c_membership(CFamilyDescriptor(1, 1, 3))
    assert m.in_i == 3 and m.in_iota == Q(1, 3)
    m = c_membership(CFamilyDescriptor(1, 0, 1))
    assert m.in_i is None and m.in_iota == 0
    m = c_membership(CFamilyDescriptor(2, 1, 1))
    assert m.in_i == 1 and m.in_iota == 1
    m = c_membership(CFamilyDescriptor(5, 0, 0))
    assert m.in_i == "all" and m.in_iota == "all"
    with pytest.raises(ValueError):
        c_membership(CFamilyDescriptor(1, 1, 2))  # 2a = st


def test_product_presentation():
    d1 = CFamilyDescriptor(rnd(), rnd(), rnd())
    d2 = CFamilyDescriptor(rnd(), rnd(), rnd())
    pres = c_product(d1, d2)
    assert pres.anticommutator == d1.s * d2.t
    assert sharp_product_matches_presentation(d1, d2, pres)
    anticomm = c_product(CFamilyDescriptor(1, 0, 2), CFamilyDescriptor(1, 1, 4))
    assert anticomm.anticommutator == 2
    graded = c_product(CFamilyDescriptor(rnd(), 0, 0), CFamilyDescriptor(rnd(), 0, 0))
    assert graded.anticommutator == 0


@pytest.mark.parametrize("field", ["anticommutator", "h_dot_y", "rho_y_s"])
def test_presentation_off_by_one_is_rejected(field):
    d1, d2 = CFamilyDescriptor(Q(3), Q(2), Q(5)), CFamilyDescriptor(Q(-1, 2), Q(7, 3), Q(1, 4))
    pres = c_product(d1, d2)
    assert sharp_product_matches_presentation(d1, d2, pres)
    entries = dict(vars(pres))
    entries[field] += 1
    off = CProductPresentation(**entries)
    # the named algebra is still a YD algebra, so the comparisons decide
    assert check_yd_algebra(quaternion_yd_algebra(off)).ok
    assert not sharp_product_matches_presentation(d1, d2, off)


def test_validate_c_iso_rejects_wrong_scales_and_a_wrong_coaction():
    d = CFamilyDescriptor(Q(3), Q(2), Q(5))
    alpha = Q(-2, 3)
    d1 = CFamilyDescriptor(alpha**2 * d.a, alpha * d.t, alpha * d.s)
    w = c_equivalent(d1, d)
    assert validate_c_iso(d1, d, w)
    # −w is an algebra map that the action and the coaction each reject
    assert validate_c_iso(d1, d, -w, action=False, coaction=False)
    assert not validate_c_iso(d1, d, -w)
    assert not validate_c_iso(d1, d, -w, coaction=False)
    assert not validate_c_iso(d1, d, -w, action=False)
    # 2w is not even an algebra map
    assert not validate_c_iso(d1, d, 2 * w)
    assert not validate_c_iso(d1, d, 2 * w, action=False, coaction=False)
    other_s = CFamilyDescriptor(d.a, d.t, d.s + 1)
    assert validate_c_iso(d1, other_s, w, coaction=False)
    assert not validate_c_iso(d1, other_s, w)


def test_quaternion_builder_is_yd():
    pres = c_product(CFamilyDescriptor(1, 2, 3), CFamilyDescriptor(-2, 1, 5))
    assert check_yd_algebra(quaternion_yd_algebra(pres)).ok


# -- BM0 invariants -----------------------------------------------------------


def test_classify_bm0_values():
    inv = classify_bm0(CFamilyDescriptor(1, 2, 0))
    assert inv.beta == 1 and inv.square_class == 1
    assert classify_bm0(CFamilyDescriptor(Q(5), 0, 0)).beta == 0
    beta = Q(7, 3)
    inv = classify_bm0(CFamilyDescriptor(1 / (4 * beta), 1, 0))
    assert inv.beta == beta


def test_classify_bm0_preconditions():
    with pytest.raises(ValueError):
        classify_bm0(CFamilyDescriptor(1, 1, 1))
    with pytest.raises(ValueError):
        classify_bm0(CFamilyDescriptor(0, 1, 0))


def test_squarefree_part():
    assert squarefree_part(Q(4)) == 1
    assert squarefree_part(Q(12)) == 3
    assert squarefree_part(Q(-8)) == -2
    assert squarefree_part(Q(4, 3)) == 3
    assert squarefree_part(Q(0)) == 0


def _squarefree_by_trial_division(x):
    """Square class of x by trial division up to the square root, unbounded."""
    n = abs(x.numerator * x.denominator)
    out, d = 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e ^= 1
        if e:
            out *= d
        d += 1
    out *= n
    return out if x > 0 else -out


def test_squarefree_part_matches_trial_division():
    local = random.Random(6151)
    primes = [2, 3, 5, 7, 11, 13, 101, 997, 7919]
    values = []
    for _ in range(200):  # smooth values: products of powers of the primes above
        num = den = 1
        for p in local.sample(primes, 3):
            num *= p ** local.randint(0, 3)
            den *= local.choice(primes) ** local.randint(0, 2)
        values.append(Q(local.choice((-1, 1)) * num, den))
    values += [Q(local.randint(-10**5, 10**5) or 1, local.randint(1, 100)) for _ in range(200)]
    for x in values:
        assert squarefree_part(x) == _squarefree_by_trial_division(x), x


def test_squarefree_part_large_cofactors():
    p, q = 1000003, 1000033  # primes above the trial-division bound
    assert squarefree_part(Q(p)) == p                   # cofactor below B²: prime
    assert squarefree_part(Q(-12 * p * p)) == -3        # cofactor a square
    assert squarefree_part(Q(5, p * p)) == 5
    # the first prime above B² = 10¹² and the last below 1000001²: trial division
    # stops at d = 1000001, and a cofactor below d² is a prime
    for big in (1000000000039, 1000001999917):
        assert squarefree_part(Q(big)) == big
        assert squarefree_part(Q(-7 * big)) == -7 * big
        assert squarefree_part(Q(3, 4 * big)) == 3 * big
    for undecided in (Q(p * p * q), Q(3, p * p * q), Q(p * q)):
        with pytest.raises(ValueError):
            squarefree_part(undecided)


# -- lazy cocycles and transports ----------------------------------------------


def test_sigma_table_values():
    sig = build_sigma(Q(5))
    assert dense(form_matrix(*sig.int_pairs))[2][2] == Q(5, 2)    # σ(h⊗h) = t/2
    assert dense(form_matrix(*sig.int_pairs))[3][3] == Q(-5, 2)   # σ(gh⊗gh) = −t/2
    assert check_lazy_cocycle(sig).ok


def test_sigma_zero_twist_is_identity():
    c = build_C(CFamilyDescriptor(Q(3), Q(0), Q(1)))
    twisted = cocycle_twist(c, build_sigma(0))
    assert twisted.alg.same_product(c.alg)
    assert coaction_rows(twisted) == coaction_rows(c)


def test_twist_square_value():
    a, s = Q(4), Q(6)
    twisted = cocycle_twist(build_C(CFamilyDescriptor(a, 0, 1)), build_sigma(s))
    x = [Q(0), Q(1)]
    assert twisted.alg.mul_vec(x, x) == [a + s / 2, Q(0)]
    assert check_comodule(twisted).ok


def test_psi_transport():
    assert psi_transport(CFamilyDescriptor(1, 0, 1), 2) == CFamilyDescriptor(2, 2, 1)
    a, s = rnd(), rnd()
    assert psi_transport(CFamilyDescriptor(a, 0, 1), s) == CFamilyDescriptor(a + s / 2, s, 1)
    assert psi_transport(CFamilyDescriptor(a, 0, 1), 0) == CFamilyDescriptor(a, 0, 1)
    with pytest.raises(TransportShapeError):
        psi_transport(CFamilyDescriptor(1, 1, 1), 2)


def test_phi_transport():
    a, t = rnd(), rnd()
    assert phi_transport(CFamilyDescriptor(a, 1, t)) == CFamilyDescriptor(a, t, 1)
    assert phi_transport(CFamilyDescriptor(a, 1, 0)) == CFamilyDescriptor(a, 0, 1)
    assert phi_transport(CFamilyDescriptor(a, t, 1), inverse=True) == CFamilyDescriptor(a, 1, t)
    with pytest.raises(TransportShapeError):
        phi_transport(CFamilyDescriptor(1, 2, 1))


def test_transport_chain_cor34():
    for _ in range(5):
        a, q = rnd(), rnd()
        out = phi_transport(
            psi_transport(phi_transport(CFamilyDescriptor(a, 1, q)), q, inverse=True),
            inverse=True,
        )
        assert out == CFamilyDescriptor(a - q / 2, 1, 0)


def test_transported_action_value():
    # Φ on (a;1,t): the reinduced action has h·x = t
    a, t = Q(5), Q(7)
    out = phi_transport(CFamilyDescriptor(a, 1, t))
    built = build_C(out)
    assert column(action_matrices(built)[2], 1) == [t, Q(0)]


# -- Aut(H4) action ------------------------------------------------------------


def test_aut_conjugate_formula():
    for _ in range(8):
        d = CFamilyDescriptor(rnd(), rnd(), rnd())
        alpha = rnd(True)
        out = aut_conjugate(d, alpha)
        assert out == CFamilyDescriptor(d.a, alpha * d.t, d.s / alpha)
    d = CFamilyDescriptor(Q(2), Q(3), Q(4))
    assert aut_conjugate(d, 1) == d


def test_aut_kernel_is_pm_one():
    d = CFamilyDescriptor(Q(2), Q(3), Q(4))
    out = aut_conjugate(d, -1)
    assert out == CFamilyDescriptor(Q(2), Q(-3), Q(-4))
    assert c_equivalent(out, d) == -1


def test_aut_twist_matches_built_descriptor():
    d = CFamilyDescriptor(Q(2), Q(3), Q(4))
    alpha = Q(5, 3)
    twisted = aut_twist(build_C(d), alpha)
    assert check_yd_algebra(twisted).ok
    expected = build_C(CFamilyDescriptor(d.a, alpha * d.t, d.s / alpha))
    assert action_matrices(twisted) == action_matrices(expected) and coaction_rows(twisted) == coaction_rows(expected)


def test_h_alpha_module():
    alpha = Q(5)
    h_alpha = build_h_alpha(alpha)
    assert check_module(h_alpha).ok
    assert check_comodule(h_alpha).ok
    # h·g = −(1+α)gh and h·h = 0
    assert column(action_matrices(h_alpha)[2], 1) == [Q(0), Q(0), Q(0), -(1 + alpha)]
    assert column(action_matrices(h_alpha)[2], 2) == [Q(0)] * 4
    # g·g = g, g·h = −h
    assert column(action_matrices(h_alpha)[1], 1) == [Q(0), Q(1), Q(0), Q(0)]
    assert column(action_matrices(h_alpha)[1], 2) == [Q(0), Q(0), Q(-1), Q(0)]


def test_aut_algebra_is_azumaya():
    a = aut_algebra(Q(3))
    assert check_yd_algebra(a).ok
    assert is_h_azumaya(a)


def test_aut_zero_rejected():
    # α = 0 is no automorphism: H_0 failed its YD condition, and A_0 passed
    # check_yd_algebra without being Azumaya
    for call in (lambda: aut_conjugate(CFamilyDescriptor(1, 1, 1), 0),
                 lambda: aut_twist(build_C(CFamilyDescriptor(1, 1, 1)), 0),
                 lambda: build_h_alpha(0), lambda: aut_algebra(Q(0))):
        with pytest.raises(ValueError, match="^automorphism parameter must be nonzero$"):
            call()


def _c_keeping(*stores):
    """C(1;1,1) with its product and only the named stores of its action
    (``int_images``) and coaction (``int_rho``)."""
    c = build_C(CFamilyDescriptor(1, 1, 1))
    return YDObject.from_int(c.hopf, c.dim, c.alg, **{name[4:]: getattr(c, name) for name in stores})


# an object over H₄ without a store the twist reads, which raised TypeError
# or AttributeError
MISSING_STORES = {
    "cocycle_twist H_alpha": (lambda: cocycle_twist(build_h_alpha(2), build_sigma(1)), "product"),
    "cocycle_twist module algebra": (lambda: cocycle_twist(_c_keeping("int_images"), build_sigma(1)), "coaction"),
    "aut_twist comodule algebra": (lambda: aut_twist(_c_keeping("int_rho"), 2), "action"),
    "aut_twist algebra": (lambda: aut_twist(_c_keeping(), 2), "action and no coaction"),
}


@pytest.mark.parametrize("case", MISSING_STORES)
def test_a_twist_names_the_store_it_lacks(case):
    call, missing = MISSING_STORES[case]
    with pytest.raises(ValueError, match=f"^YDObject has no {missing}$"):
        call()


# -- intersections ---------------------------------------------------------------


def test_intersection_reciprocal_parameters():
    verdicts = intersection_report(2, Q(1, 2))
    assert verdicts[0].nontrivial
    w = verdicts[0].witness
    assert w is not None and w.is_azumaya
    m = c_membership(w)
    assert m.in_i == 2 and m.in_iota == Q(1, 2)
    assert not verdicts[1].nontrivial and not verdicts[2].nontrivial


def test_intersection_trivial_cases():
    verdicts = intersection_report(1, 2)
    assert not verdicts[0].nontrivial
    assert not verdicts[1].nontrivial
    assert not verdicts[2].nontrivial


def test_intersection_equal_parameters():
    verdicts = intersection_report(3, 3)
    assert not verdicts[0].nontrivial  # 3·3 ≠ 1
    assert verdicts[1].nontrivial and verdicts[1].witness.is_azumaya
    assert verdicts[2].nontrivial and verdicts[2].witness.is_azumaya
    m = c_membership(verdicts[1].witness)
    assert m.in_i == 3


def test_induced_action_from_transport_target():
    # the Φ image (a;t,1) carries the r_t-induced action
    a, t = Q(5), Q(7)
    c = build_C(CFamilyDescriptor(a, t, 1))
    induced = induced_action(c, build_rt_form(t))
    assert action_matrices(induced) == action_matrices(c)


# -- property tests ---------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

small_rats = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@settings(max_examples=25, deadline=None)
@given(a=small_rats, t=small_rats, s=small_rats)
def test_property_c_family_yd_and_determinants(a, t, s):
    from hopfbrauer.linalg import mat_det
    from hopfbrauer.yd import fg_maps

    c = build_C(CFamilyDescriptor(a, t, s))
    assert check_yd_algebra(c).ok
    f, g = fg_maps(c)
    assert mat_det(f) == -((s * t - 2 * a) ** 2)
    assert mat_det(g) == (s * t - 2 * a) ** 2


@settings(max_examples=15, deadline=None)
@given(a=small_rats, t=small_rats, s=small_rats, a2=small_rats, t2=small_rats, s2=small_rats)
def test_property_opposite_and_product_stay_yd(a, t, s, a2, t2, s2):
    from hopfbrauer.yd import h_opposite, sharp_product

    d1, d2 = CFamilyDescriptor(a, t, s), CFamilyDescriptor(a2, t2, s2)
    assert check_yd_algebra(h_opposite(build_C(d1))).ok
    prod = sharp_product(build_C(d1), build_C(d2))
    assert check_yd_algebra(prod).ok


# every entry point that takes a rational parameter, fed it as x
PARAMETER_ENTRY_POINTS = {
    "CFamilyDescriptor": lambda x: CFamilyDescriptor(1, 1, x),
    "build_rt": build_rt,
    "build_rt_form": build_rt_form,
    "build_sigma": build_sigma,
    "squarefree_part": squarefree_part,
    "psi_transport": lambda x: psi_transport(CFamilyDescriptor(1, 0, 1), x),
    "aut_twist": lambda x: aut_twist(build_C(CFamilyDescriptor(1, 1, 1)), x),
    "aut_conjugate": lambda x: aut_conjugate(CFamilyDescriptor(1, 1, 1), x),
    "build_h_alpha": build_h_alpha,
    "intersection_report": lambda x: intersection_report(1, x),
    "validate_c_iso": lambda x: validate_c_iso(CFamilyDescriptor(1, 1, 1), CFamilyDescriptor(1, 1, 1), x),
    "theta": lambda x: e2.theta(0, x),
    "_e12": e2._e12,
    "build_c_e2": lambda x: e2.build_c_e2(1, 1, x),
    "closure_params": lambda x: e2.closure_params(3, x),
    "Matrix.__mul__": lambda x: Matrix.identity(2) * x,
    "rational_is_square": rational_is_square,
}


@pytest.mark.parametrize("bad", [0.1, "1/2"], ids=["float", "string"])
@pytest.mark.parametrize("entry", PARAMETER_ENTRY_POINTS)
def test_a_parameter_that_is_not_rational_is_refused(entry, bad):
    # 0.1 was kept as the binary fraction 3602879701896397/36028797018963968,
    # and rational_is_square(0.25) was 1/2
    with pytest.raises(ValueError, match=f"^entry {bad!r} is not rational$"):
        PARAMETER_ENTRY_POINTS[entry](bad)
