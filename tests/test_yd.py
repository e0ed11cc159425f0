import random
from fractions import Fraction as Q

import pytest

from hopfbrauer.algebra import StructureAlgebra
from hopfbrauer.linalg import Matrix, in_span, is_zero_vec, mat_det, zero_vec
from hopfbrauer.sweedler import (
    CFamilyDescriptor,
    build_C,
    build_dh4,
    build_h4,
    build_rt,
    build_rt_form,
    c_opposite,
)
from hopfbrauer.yd import (
    NoRationalNormalization,
    YDObject,
    braiding_psi,
    check_module_algebra,
    check_yd_algebra,
    check_yd_condition,
    coaction_sparse,
    double_to_yd,
    end_yd,
    fg_maps,
    graded_flip,
    gradings,
    h_opposite,
    induced_action,
    induced_coaction,
    inner_witness,
    is_h_azumaya,
    sharp_product,
    strongly_inner_witness_h4,
    yd_centralizers,
    yd_to_double,
)

rng = random.Random(42)


def rnd(nonzero=False):
    n = rng.randint(-9, 9)
    while nonzero and n == 0:
        n = rng.randint(-9, 9)
    return Q(n, rng.randint(1, 9))


def trivial_yd_on(alg: StructureAlgebra) -> YDObject:
    """Action through ε, coaction a ↦ a⊗1."""
    h4 = build_h4()
    action = [Matrix.identity(alg.dim) * h4.counit[i] for i in range(4)]
    coaction = []
    for j in range(alg.dim):
        row = zero_vec(alg.dim * 4)
        row[j * 4 + 0] = Q(1)
        coaction.append(row)
    return YDObject(h4, alg.dim, alg, action, coaction)


def test_carrier_is_frozen_and_computes_its_views_once():
    import dataclasses

    c = build_C(CFamilyDescriptor(Q(3), Q(2), Q(5)))
    assert c.rho is c.rho and c.images is c.images
    assert c.rho == [coaction_sparse(c.coaction, 4, j) for j in range(2)]
    assert c.images == [[{k: v for k, v in enumerate(m.col(j)) if v} for m in c.action] for j in range(2)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.coaction = []
    with pytest.raises(ValueError):
        YDObject(c.hopf, 3, c.alg)
    assert c.same_structure(build_C(CFamilyDescriptor(Q(3), Q(2), Q(5))))
    assert not c.same_structure(build_C(CFamilyDescriptor(Q(3), Q(2), Q(4))))
    assert not c.same_structure(YDObject(c.hopf, 2, action=c.action, coaction=c.coaction))


def test_c_family_is_yd():
    for _ in range(6):
        d = CFamilyDescriptor(rnd(), rnd(), rnd())
        assert check_yd_algebra(build_C(d)).ok


def test_trivial_structure_is_yd():
    alg = StructureAlgebra(["1", "x"], [1, 0], [[[1, 0], [0, 1]], [[0, 1], [3, 0]]])
    assert check_yd_algebra(trivial_yd_on(alg)).ok


def test_dropping_s_term_still_yd():
    # removing the s⊗h term from ρ(x) just produces C(a;t,0), still valid
    d = CFamilyDescriptor(Q(1), Q(2), Q(3))
    c = build_C(d)
    dropped = [list(row) for row in c.coaction]
    dropped[1][0 * 4 + 2] = Q(0)
    assert check_yd_algebra(YDObject(c.hopf, c.dim, c.alg, c.action, dropped)).ok


def test_corrupted_coaction_breaks_yd_only():
    # ρ(x) = x⊗1 with h·x = t ≠ 0: module, comodule and both algebra
    # compatibilities survive, but the compatibility condition does not
    c = build_C(CFamilyDescriptor(Q(1), Q(2), Q(0)))
    bad_coaction = [list(row) for row in c.coaction]
    bad_coaction[1][1 * 4 + 1] = Q(0)  # remove x⊗g
    bad_coaction[1][1 * 4 + 0] = Q(1)  # insert x⊗1
    bad = YDObject(c.hopf, c.dim, c.alg, c.action, bad_coaction)
    from hopfbrauer.yd import check_comodule_algebra_op, check_module_algebra

    assert check_module_algebra(bad).ok
    assert check_comodule_algebra_op(bad).ok
    assert not check_yd_condition(bad).ok


def test_yd_double_round_trip():
    double, _ = build_dh4()
    d = CFamilyDescriptor(Q(3), Q(2), Q(5))
    c = build_C(d)
    over_double = yd_to_double(c, double)
    assert check_module_algebra(over_double).ok
    back = double_to_yd(over_double, build_h4())
    assert back.action == c.action
    assert back.coaction == c.coaction


def test_phi_g_acts_by_coaction_pairing():
    double, _ = build_dh4()
    d = CFamilyDescriptor(Q(3), Q(2), Q(5))
    over_double = yd_to_double(build_C(d), double)
    from hopfbrauer.sweedler import dh4_named

    phig = dh4_named("phi_g")
    mat = Matrix.zero(2, 2)
    for i, c in enumerate(phig):
        if c:
            mat = mat + over_double.action[i] * c
    # ρ(x) = x⊗g + s⊗h and φ(g) pairs g ↦ −1, h ↦ 0, so φ(g)·x = −x
    assert mat.col(1) == [Q(0), Q(-1)]
    assert mat.col(0) == [Q(1), Q(0)]


def test_trivial_coaction_gives_identity_phi_g_action():
    alg = StructureAlgebra(["1", "x"], [1, 0], [[[1, 0], [0, 1]], [[0, 1], [3, 0]]])
    triv = trivial_yd_on(alg)
    double, _ = build_dh4()
    over_double = yd_to_double(triv, double)
    from hopfbrauer.sweedler import dh4_named

    phig = dh4_named("phi_g")
    mat = Matrix.zero(2, 2)
    for i, c in enumerate(phig):
        if c:
            mat = mat + over_double.action[i] * c
    assert mat == Matrix.identity(2)


def test_h_opposite_formula_and_validity():
    d = CFamilyDescriptor(rnd(), rnd(), rnd())
    c = build_C(d)
    opp = h_opposite(c)
    assert check_yd_algebra(opp).ok
    x = [Q(0), Q(1)]
    assert opp.alg.mul_vec(x, x) == [d.s * d.t - d.a, Q(0)]
    expected = build_C(c_opposite(d))
    assert opp.alg.mult == expected.alg.mult


def test_h_opposite_of_trivial_structure_is_plain_opposite():
    alg = StructureAlgebra(
        ["1", "u", "v", "uv"],
        [1, 0, 0, 0],
        [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
            [[0, 0, 1, 0], [0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        ],
    )
    triv = trivial_yd_on(alg)
    opp = h_opposite(triv)
    from hopfbrauer.algebra import opposite_algebra

    assert opp.alg.mult == opposite_algebra(alg).mult


def test_sharp_with_trivial_factor_is_isomorphic():
    d = CFamilyDescriptor(Q(3), Q(2), Q(5))
    c = build_C(d)
    one_dim = StructureAlgebra(["1"], [1], [[[1]]])
    s = sharp_product(c, trivial_yd_on(one_dim))
    assert check_yd_algebra(s).ok
    assert s.alg.mult == c.alg.mult
    assert s.action == c.action
    assert s.coaction == c.coaction


def test_sharp_products_pass_checks_and_stay_azumaya():
    for _ in range(4):
        d1 = CFamilyDescriptor(rnd(), rnd(), rnd())
        d2 = CFamilyDescriptor(rnd(), rnd(), rnd())
        s = sharp_product(build_C(d1), build_C(d2))
        assert check_yd_algebra(s).ok
        if d1.is_azumaya and d2.is_azumaya:
            assert is_h_azumaya(s)


def test_end_yd_trivial_module():
    h4 = build_h4()
    triv = YDObject(
        h4,
        1,
        action=[Matrix([[h4.counit[i]]]) for i in range(4)],
        coaction=[[Q(1), Q(0), Q(0), Q(0)]],
    )
    e = end_yd(triv, "plain")
    assert e.dim == 1
    assert check_yd_algebra(e).ok
    f, g = fg_maps(e)
    assert f == Matrix.identity(1) and g == Matrix.identity(1)


@pytest.mark.parametrize("variant", ["plain", "op"])
def test_end_yd_of_c_modules(variant):
    d = CFamilyDescriptor(Q(2), Q(1), Q(3))
    e = end_yd(build_C(d), variant)
    assert check_yd_algebra(e).ok
    assert is_h_azumaya(e)


def test_fg_matrix_matches_printed_table():
    a, t, s = Q(3), Q(2), Q(5)
    f, g = fg_maps(build_C(CFamilyDescriptor(a, t, s)))
    st = s * t
    assert f.data == Matrix(
        [
            [1, 0, 0, a],
            [0, 1, 1, 0],
            [0, st - a, a, 0],
            [1, 0, 0, st - a],
        ]
    ).data
    assert g.data == Matrix(
        [
            [1, 0, 0, a],
            [0, 1, 1, 0],
            [0, a, st - a, 0],
            [1, 0, 0, st - a],
        ]
    ).data


def test_fg_determinants():
    for _ in range(6):
        a, t, s = rnd(), rnd(), rnd()
        f, g = fg_maps(build_C(CFamilyDescriptor(a, t, s)))
        assert mat_det(f) == -((s * t - 2 * a) ** 2)
        assert mat_det(g) == (s * t - 2 * a) ** 2


def test_azumaya_iff_2a_neq_st():
    assert not is_h_azumaya(build_C(CFamilyDescriptor(0, 0, 0)))
    assert is_h_azumaya(build_C(CFamilyDescriptor(1, 1, 0)))
    assert not is_h_azumaya(build_C(CFamilyDescriptor(3, 2, 3)))


def test_induced_coaction_forces_s_equals_lt():
    a, t = Q(2), Q(3)
    for l in (Q(0), Q(1), Q(-2, 3)):
        c = build_C(CFamilyDescriptor(a, t, l * t))
        induced = induced_coaction(c, build_rt(l))
        assert induced.coaction == c.coaction
        assert check_yd_algebra(induced).ok
        wrong = build_C(CFamilyDescriptor(a, t, l * t + 1))
        assert induced_coaction(wrong, build_rt(l)).coaction != wrong.coaction


def test_induced_action_forces_t_equals_sl():
    a, s = Q(2), Q(3)
    for l in (Q(0), Q(1), Q(-2, 3)):
        c = build_C(CFamilyDescriptor(a, s * l, s))
        induced = induced_action(c, build_rt_form(l))
        assert induced.action == c.action
        assert check_yd_algebra(induced).ok


def test_trivial_action_induces_trivial_coaction():
    alg = StructureAlgebra(["1", "x"], [1, 0], [[[1, 0], [0, 1]], [[0, 1], [5, 0]]])
    triv = trivial_yd_on(alg)
    for t in (Q(0), Q(7)):
        out = induced_coaction(triv, build_rt(t))
        assert out.coaction == triv.coaction


def test_lemma24_trivial_h_action_is_t_independent():
    a = Q(5)
    carrier = build_C(CFamilyDescriptor(a, 0, 0))
    base = induced_coaction(carrier, build_rt(0))
    f0, g0 = fg_maps(base)
    for t in (Q(1), Q(-3), Q(7, 2)):
        other = induced_coaction(carrier, build_rt(t))
        assert other.coaction == base.coaction
        f, g = fg_maps(other)
        assert (mat_det(f) != 0) == (mat_det(f0) != 0)
        assert (mat_det(g) != 0) == (mat_det(g0) != 0)


def test_braiding_with_r0_is_graded_flip():
    c1 = build_C(CFamilyDescriptor(Q(1), Q(2), Q(0)))
    c2 = build_C(CFamilyDescriptor(Q(-2), Q(3), Q(0)))
    v, w = c1, c2
    psi = braiding_psi(v, w, build_rt(0))
    assert psi == graded_flip((0, 1), (0, 1))


def test_braiding_matches_term_expansion():
    rt = build_rt(Q(3))
    c1 = build_C(CFamilyDescriptor(Q(1), Q(2), Q(6)))
    c2 = build_C(CFamilyDescriptor(Q(-2), Q(3), Q(9)))
    c3 = build_C(CFamilyDescriptor(Q(5), Q(1), Q(4)))
    # the 2 × 4 pair tells dim V from dim W in the flip's index arithmetic
    for v, w in ((c1, c2), (c1, sharp_product(c2, c3))):
        dv, dw = v.dim, w.dim
        psi = braiding_psi(v, w, rt)
        for _ in range(5):
            x = [rnd() for _ in range(dv)]
            y = [rnd() for _ in range(dw)]
            flat = [xi * yj for xi in x for yj in y]
            expanded = [Q(0)] * (dv * dw)
            for (i, j), coef in rt.pairs().items():
                wy = w.action[j].apply(y)
                vx = v.action[i].apply(x)
                for p, cp in enumerate(wy):
                    for q, cq in enumerate(vx):
                        expanded[p * dv + q] += coef * cp * cq
            assert psi.apply(flat) == expanded


def test_gradings_of_c_family_coincide():
    g = gradings(build_C(CFamilyDescriptor(Q(2), Q(3), Q(4))))
    assert g.action_parity == (0, 1)
    assert g.coaction_parity == (0, 1)
    assert g.equal


def test_lemma32_sign_rule():
    # B in the Brauer-Wall part: trivial h- and φ(h)-action
    a_desc = CFamilyDescriptor(Q(2), Q(3), Q(4))
    b_desc = CFamilyDescriptor(Q(-3), Q(0), Q(0))
    a, b = build_C(a_desc), build_C(b_desc)
    s = sharp_product(a, b)
    ga, gb = gradings(a), gradings(b)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                for w_ in range(2):
                    lhs = s.alg.mul_vec(
                        s.alg.basis_vec(x * 2 + y), s.alg.basis_vec(z * 2 + w_)
                    )
                    sign = Q(-1) if ga.coaction_parity[z] and gb.action_parity[y] else Q(1)
                    xz = a.alg.mul_vec(a.alg.basis_vec(x), a.alg.basis_vec(z))
                    yw = b.alg.mul_vec(b.alg.basis_vec(y), b.alg.basis_vec(w_))
                    rhs = zero_vec(4)
                    for p, cp in enumerate(xz):
                        for q, cq in enumerate(yw):
                            rhs[p * 2 + q] = sign * cp * cq
                    assert lhs == rhs
    # mirrored form for B # A with the action grading
    s2 = sharp_product(b, a)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                for w_ in range(2):
                    lhs = s2.alg.mul_vec(
                        s2.alg.basis_vec(x * 2 + y), s2.alg.basis_vec(z * 2 + w_)
                    )
                    sign = Q(-1) if gb.action_parity[z] and ga.action_parity[y] else Q(1)
                    xz = b.alg.mul_vec(b.alg.basis_vec(x), b.alg.basis_vec(z))
                    yw = a.alg.mul_vec(a.alg.basis_vec(y), a.alg.basis_vec(w_))
                    rhs = zero_vec(4)
                    for p, cp in enumerate(xz):
                        for q, cq in enumerate(yw):
                            rhs[p * 2 + q] = sign * cp * cq
                    assert lhs == rhs


def test_centralizer_of_unit_is_everything():
    c = build_C(CFamilyDescriptor(Q(1), Q(1), Q(0)))
    left, right = yd_centralizers(c, [c.alg.one()])
    assert len(left) == 2 and len(right) == 2


def test_centers_trivial_for_azumaya():
    c = build_C(CFamilyDescriptor(Q(1), Q(1), Q(0)))
    full = [c.alg.basis_vec(0), c.alg.basis_vec(1)]
    left, right = yd_centralizers(c, full)
    assert len(left) == 1 and in_span(left, c.alg.one())
    assert len(right) == 1 and in_span(right, c.alg.one())


def test_centralizer_requires_closed_subspace():
    c = build_C(CFamilyDescriptor(Q(1), Q(2), Q(0)))
    with pytest.raises(ValueError):
        yd_centralizers(c, [c.alg.basis_vec(1)])  # k·x is not h-stable (h·x = 2)


def test_inner_witness_on_neutralized_product():
    h4 = build_h4()
    for a, t in ((Q(1), Q(2)), (Q(3), Q(-1, 2))):
        s = sharp_product(
            build_C(CFamilyDescriptor(a, t, 0)), build_C(CFamilyDescriptor(-a, 0, 0))
        )
        v = inner_witness(s, h4.meta["h"], h4.meta["g"])
        assert v is not None
        lam = Q(-t, 2 * a)
        assert v[2] == lam  # X component (basis x#1)
        assert v[1] == 0    # Y component (basis 1#y)


def test_inner_witness_trivial_action_is_zero():
    alg = StructureAlgebra(["1", "x"], [1, 0], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    h4 = build_h4()
    action = [Matrix.identity(2), Matrix.diag([1, -1]), Matrix.zero(2, 2), Matrix.zero(2, 2)]
    a = YDObject(h4, alg.dim, alg, action)
    v = inner_witness(a, h4.meta["h"], h4.meta["g"])
    assert v == [Q(0), Q(0)]


def test_strongly_inner_beta():
    for a, t in ((Q(1), Q(2)), (Q(3), Q(-5)), (Q(7, 2), Q(1, 3))):
        s = sharp_product(
            build_C(CFamilyDescriptor(a, t, 0)), build_C(CFamilyDescriptor(-a, 0, 0))
        )
        found = strongly_inner_witness_h4(s)
        assert found is not None
        u, w, beta = found
        assert beta == t * t / (4 * a)
        assert s.alg.mul_vec(u, u) == s.alg.one()
        anti = [x + y for x, y in zip(s.alg.mul_vec(w, u), s.alg.mul_vec(u, w))]
        assert is_zero_vec(anti)


def test_strongly_inner_trivial_action():
    from hopfbrauer.algebra import endomorphism_algebra

    h4 = build_h4()
    end = endomorphism_algebra(2)
    action = [Matrix.identity(4) * h4.counit[i] for i in range(4)]
    a = YDObject(h4, end.dim, end, action)
    u, w, beta = strongly_inner_witness_h4(a)
    assert u == end.one()
    assert is_zero_vec(w)
    assert beta == 0


def test_strongly_inner_rational_obstruction():
    # C(1;1,0) # C(1;0,0): the conjugation implementer squares to −1
    s = sharp_product(
        build_C(CFamilyDescriptor(Q(1), Q(1), Q(0))), build_C(CFamilyDescriptor(Q(1), Q(0), Q(0)))
    )
    with pytest.raises(NoRationalNormalization):
        strongly_inner_witness_h4(s)


def test_fg_maps_are_yd_morphisms():
    # F: A#Ā → End(A) and G: Ā#A → End(A)^op are isomorphisms of YD module
    # algebras for Azumaya A: algebra maps, H-linear and colinear
    d = CFamilyDescriptor(Q(3), Q(2), Q(5))
    a = build_C(d)
    abar = h_opposite(a)
    f, g = fg_maps(a)
    e_plain = end_yd(a, "plain")
    e_op = end_yd(a, "op")
    for source, matrix, target in ((sharp_product(a, abar), f, e_plain),
                                   (sharp_product(abar, a), g, e_op)):
        assert matrix.apply(source.alg.unit) == target.alg.one()
        for i in range(4):
            for j in range(4):
                lhs = matrix.apply(source.alg.mul_vec(source.alg.basis_vec(i), source.alg.basis_vec(j)))
                rhs = target.alg.mul_vec(matrix.apply(source.alg.basis_vec(i)),
                                         matrix.apply(source.alg.basis_vec(j)))
                assert lhs == rhs
        for h in range(4):
            for j in range(4):
                assert matrix.apply(source.action[h].col(j)) == \
                    target.action[h].apply(matrix.apply(source.alg.basis_vec(j)))
        for j in range(4):
            lhs = zero_vec(16)
            for p, k, c in coaction_sparse(source.coaction, 4, j):
                for q, v in enumerate(matrix.apply(source.alg.basis_vec(p))):
                    lhs[q * 4 + k] += c * v
            rhs = zero_vec(16)
            for p, c in enumerate(matrix.apply(source.alg.basis_vec(j))):
                if c:
                    for kk, v in enumerate(target.coaction[p]):
                        rhs[kk] += c * v
            assert lhs == rhs


def test_grading_error_on_non_homogeneous_basis():
    from hopfbrauer.yd import GradingError, action_grading

    h4 = build_h4()
    swap = Matrix([[0, 1], [1, 0]])
    mod = YDObject(h4, 2, action=[Matrix.identity(2), swap, Matrix.zero(2, 2), Matrix.zero(2, 2)])
    from hopfbrauer.yd import check_module

    assert check_module(mod).ok
    with pytest.raises(GradingError):
        action_grading(mod, h4.meta["g"])


def test_element_parent_mismatch():
    a = build_C(CFamilyDescriptor(Q(1), Q(0), Q(0))).alg
    b = build_C(CFamilyDescriptor(Q(2), Q(0), Q(0))).alg
    with pytest.raises(ValueError):
        a.basis_element(1) * b.basis_element(1)


def test_solve_linear_dimension_mismatch():
    from hopfbrauer.linalg import DimensionError, solve_linear

    with pytest.raises(DimensionError):
        solve_linear(Matrix.identity(2), [Q(1)])


def test_cocycle_twist_rejects_invalid_cocycle():
    from hopfbrauer.sweedler import LazyCocycle, cocycle_twist

    bad = LazyCocycle(Q(1), Matrix([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]))
    with pytest.raises(AssertionError):
        cocycle_twist(build_C(CFamilyDescriptor(Q(1), Q(0), Q(1))), bad)


# ---------------------------------------------------------------------------
# Dense reference loops for the sparse contraction kernel
# ---------------------------------------------------------------------------


def _fg_maps_reference(a):
    """F and G by dense basis loops, straight from the defining formulas."""
    alg = a.alg
    d = alg.dim
    n = a.hopf.dim
    f = [[Q(0)] * (d * d) for _ in range(d * d)]
    g = [[Q(0)] * (d * d) for _ in range(d * d)]
    for x in range(d):
        ex = alg.basis_vec(x)
        for y in range(d):
            ey = alg.basis_vec(y)
            col = x * d + y
            for z in range(d):
                outf = zero_vec(d)
                outg = zero_vec(d)
                for z0, z1, c in coaction_sparse(a.coaction, n, z):
                    acted = a.action[z1].apply(ey)
                    part = alg.mul_vec(alg.mul_vec(ex, alg.basis_vec(z0)), acted)
                    for p, v in enumerate(part):
                        outf[p] += c * v
                for x0, x1, c in coaction_sparse(a.coaction, n, x):
                    acted = a.action[x1].apply(alg.basis_vec(z))
                    part = alg.mul_vec(alg.mul_vec(alg.basis_vec(x0), acted), ey)
                    for p, v in enumerate(part):
                        outg[p] += c * v
                for p in range(d):
                    if outf[p]:
                        f[z * d + p][col] = outf[p]
                    if outg[p]:
                        g[z * d + p][col] = outg[p]
    return Matrix(f), Matrix(g)


def _h_opposite_mult_reference(a):
    """Structure constants of x∘y = y₍₀₎(y₍₁₎·x) by dense loops."""
    alg = a.alg
    n = a.hopf.dim
    mult = [[zero_vec(alg.dim) for _ in range(alg.dim)] for _ in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            out = mult[i][j]
            for b, k, c in coaction_sparse(a.coaction, n, j):
                acted = a.action[k].apply(alg.basis_vec(i))
                for p, v in enumerate(alg.mul_vec(alg.basis_vec(b), acted)):
                    out[p] += c * v
    return mult


def _module_algebra_failures_reference(a):
    """Failure messages of the module-algebra law h·(xy) = (h₍₁₎·x)(h₍₂₎·y)."""
    h, alg = a.hopf, a.alg
    failures = []
    for i in range(h.dim):
        for x in range(alg.dim):
            ex = alg.basis_vec(x)
            for y in range(alg.dim):
                ey = alg.basis_vec(y)
                lhs = a.action[i].apply(alg.mul_vec(ex, ey))
                rhs = zero_vec(alg.dim)
                for p, q, c in h.cop_sparse(i):
                    for k, v in enumerate(alg.mul_vec(a.action[p].apply(ex), a.action[q].apply(ey))):
                        rhs[k] += c * v
                if lhs != rhs:
                    failures.append(
                        f"module-algebra law fails at ({h.alg.basis[i]}; {alg.basis[x]},{alg.basis[y]})"
                    )
    return failures


def _comodule_algebra_failures_reference(a):
    """Failure messages of ρ(xy) = x₍₀₎y₍₀₎ ⊗ y₍₁₎x₍₁₎ on basis pairs."""
    h, alg = a.hopf, a.alg
    n = h.dim
    failures = []
    for x in range(alg.dim):
        for y in range(alg.dim):
            lhs = zero_vec(alg.dim * n)
            for j, c in enumerate(alg.mul_vec(alg.basis_vec(x), alg.basis_vec(y))):
                for k, v in enumerate(a.coaction[j]):
                    lhs[k] += c * v
            rhs = zero_vec(alg.dim * n)
            for ax, kx, cx in coaction_sparse(a.coaction, n, x):
                for ay, ky, cy in coaction_sparse(a.coaction, n, y):
                    apart = alg.mul_vec(alg.basis_vec(ax), alg.basis_vec(ay))
                    hpart = h.alg.mul_vec(h.alg.basis_vec(ky), h.alg.basis_vec(kx))
                    for p, cp in enumerate(apart):
                        for q, cq in enumerate(hpart):
                            rhs[p * n + q] += cx * cy * cp * cq
            if lhs != rhs:
                failures.append(f"ρ not H^op-multiplicative at ({alg.basis[x]},{alg.basis[y]})")
    return failures


def _kernel_cases():
    local = random.Random(2718)

    def rat():
        n = 0
        while n == 0:
            n = local.randint(-9, 9)
        return Q(n, local.randint(1, 9))

    from hopfbrauer.e2 import build_c_e2
    from hopfbrauer.sweedler import aut_algebra

    c1, c2, c3 = (build_C(CFamilyDescriptor(rat(), rat(), rat())) for _ in range(3))
    d4 = sharp_product(c1, c2)
    singular = build_C(CFamilyDescriptor(Q(3), Q(2), Q(3)))  # 2a = st
    return {
        "C(a;t,s)": c1,
        "singular C": singular,
        "C#C d=4": d4,
        "C#C#C d=8": sharp_product(d4, c3),
        "A_alpha": aut_algebra(rat()),
        "H-opposite of C#C": h_opposite(d4),
        "C(a;t1,t2) over E(2)": build_c_e2(rat(), rat(), rat()),
    }


def _perturbed(a):
    """``a`` with one structure constant of its product changed, so the
    product is no longer associative."""
    mult = [[list(v) for v in row] for row in a.alg.mult]
    mult[1][a.dim - 1][0] += Q(1)
    return YDObject(a.hopf, a.dim, StructureAlgebra(a.alg.basis, a.alg.unit, mult), a.action, a.coaction)


KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_fg_maps_match_dense_reference(name):
    a = KERNEL_CASES[name]
    assert fg_maps(a) == _fg_maps_reference(a)


def test_fg_maps_match_reference_without_associativity():
    a = _perturbed(KERNEL_CASES["C#C d=4"])
    assert fg_maps(a) == _fg_maps_reference(a)


@pytest.mark.parametrize("name", ["C(a;t,s)", "C#C d=4", "C#C#C d=8", "C(a;t1,t2) over E(2)"])
def test_h_opposite_matches_dense_reference(name):
    a = KERNEL_CASES[name]
    assert h_opposite(a).alg.mult == _h_opposite_mult_reference(a)


def test_yd_algebra_checks_report_reference_failures():
    from hopfbrauer.yd import check_comodule_algebra_op

    good = KERNEL_CASES["C#C d=4"]
    bad = _perturbed(good)
    module_law = [f for f in check_module_algebra(bad).failures if "module-algebra law" in f]
    comodule_law = [f for f in check_comodule_algebra_op(bad).failures if "H^op-multiplicative" in f]
    assert module_law and module_law == _module_algebra_failures_reference(bad)
    assert comodule_law and comodule_law == _comodule_algebra_failures_reference(bad)
    assert _module_algebra_failures_reference(good) == []
    assert _comodule_algebra_failures_reference(good) == []


def test_corruption_failure_messages_are_pinned():
    c = build_C(CFamilyDescriptor(Q(1), Q(2), Q(0)))
    bad_coaction = [list(row) for row in c.coaction]
    bad_coaction[1][1 * 4 + 1] = Q(0)
    bad_coaction[1][1 * 4 + 0] = Q(1)
    assert check_yd_algebra(YDObject(c.hopf, c.dim, c.alg, c.action, bad_coaction)).failures == [
        "Yetter-Drinfeld condition over H4: YD condition fails at (l=h, b=index 1)",
        "Yetter-Drinfeld condition over H4: YD condition fails at (l=gh, b=index 1)",
    ]
    action = list(c.action)
    action[c.hopf.meta["h"]] = action[c.hopf.meta["h"]] * 2
    prefix = "module algebra over H4: H-module over H4: action not multiplicative at"
    assert check_yd_algebra(YDObject(c.hopf, c.dim, c.alg, action, c.coaction)).failures == [
        f"{prefix} (g,h)", f"{prefix} (g,gh)", f"{prefix} (h,g)", f"{prefix} (gh,g)",
    ]
