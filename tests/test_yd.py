import random
from fractions import Fraction as Q
from functools import cache

import pytest

import reference
from conftest import (
    action_matrices,
    coaction_rows,
    column,
    counit_vec,
    dense,
    dense_algebra,
    dense_mult,
    dense_yd,
    diag,
    r_pairs,
    sparse_yd,
    unit_vec,
    yd_images,
    yd_rho,
    zero_matrix,
)
from hopfbrauer.algebra import StructureAlgebra
from hopfbrauer.defio import SchemaError, load_yd, yd_to_json
from hopfbrauer.e2 import build_c_e2
from hopfbrauer.linalg import Matrix, in_span, is_zero_vec, mat_det, zero_vec
from hopfbrauer.sweedler import (
    CFamilyDescriptor,
    aut_algebra,
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
    conjugation_implementer,
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


def coaction_sparse(coaction, hdim: int, j: int):
    """ρ(e_j) read off the dense coaction row: (carrier index, H index, coeff) triples."""
    return tuple((k // hdim, k % hdim, c) for k, c in enumerate(coaction[j]) if c)


def rnd(nonzero=False):
    n = rng.randint(-9, 9)
    while nonzero and n == 0:
        n = rng.randint(-9, 9)
    return Q(n, rng.randint(1, 9))


def trivial_yd_on(alg: StructureAlgebra) -> YDObject:
    """Action through ε, coaction a ↦ a⊗1."""
    h4 = build_h4()
    action = [Matrix.identity(alg.dim) * counit_vec(h4)[i] for i in range(4)]
    coaction = []
    for j in range(alg.dim):
        row = zero_vec(alg.dim * 4)
        row[j * 4 + 0] = Q(1)
        coaction.append(row)
    return dense_yd(h4, alg.dim, alg, action, coaction)


def _sparse_copy(a: YDObject):
    """Fresh lists of ``yd_images(a)`` and ``yd_rho(a)``, each entry reversed in order."""
    images = [[dict(reversed(v.items())) for v in row] for row in yd_images(a)]
    return images, [list(reversed(row)) for row in yd_rho(a)]


def test_from_sparse_stores_the_canonical_form():
    # sparse rationals scaled once into from_int (``sparse_yd``) come out canonical
    c = build_C(CFamilyDescriptor(Q(3), Q(2), Q(5)))
    shuffled = sparse_yd(c.hopf, 2, c.alg, *_sparse_copy(c))
    assert shuffled.same_structure(c) and yd_rho(shuffled) == yd_rho(c)
    assert [[list(v) for v in row] for row in yd_images(shuffled)] == [[sorted(v) for v in row] for row in yd_images(c)]
    images = [[{0: 1}, {0: 1}, {}, {}], [{1: 1}, {1: -1}, {0: 2}, {0: 2}]]
    ints = sparse_yd(c.hopf, 2, c.alg, images, [[(0, 0, 1)], [(1, 1, 1), (0, 2, 5)]])
    assert ints.same_structure(c)
    # the dense views of an integer store hold Fractions, not ints
    assert all(type(x) is Q for m in action_matrices(ints) for row in dense(m) for x in row)
    assert all(type(x) is Q for row in coaction_rows(ints) for x in row)


@pytest.mark.parametrize(
    "where, value, message",
    [
        ("images", {2: Q(1)}, "not in range"),
        ("images", {-1: Q(1)}, "not in range"),
        ("images", {0: Q(0)}, "zero coefficient"),
        ("images", {0: 0.5}, "not rational"),
        ("images", {0: "1"}, "not rational"),
        ("rho", (1, 1, Q(2)), "occurs twice"),
        ("rho", (0, 4, Q(1)), "not in range"),
        ("rho", (2, 0, Q(1)), "not in range"),
        ("rho", (0, 0, 0), "zero coefficient"),
        ("rho", (0, 0, 1.5), "not rational"),
    ],
)
def test_from_sparse_rejects_a_bad_term(where, value, message):
    # a coefficient that is not rational is refused by the scaling, every
    # other bad term by from_int
    c = build_C(CFamilyDescriptor(Q(3), Q(2), Q(5)))
    images, rho = _sparse_copy(c)
    if where == "images":
        images[1][2] = value
    else:
        rho[1].append(value)
    with pytest.raises(ValueError, match=message):
        sparse_yd(c.hopf, 2, c.alg, images, rho)


def test_from_sparse_rejects_a_wrong_shape():
    c = build_C(CFamilyDescriptor(Q(3), Q(2), Q(5)))
    images, rho = _sparse_copy(c)
    for bad_images, bad_rho in ((images[:1], rho), ([images[0], images[1][:3]], rho), (images, rho[:1])):
        with pytest.raises(ValueError):
            sparse_yd(c.hopf, 2, c.alg, bad_images, bad_rho)
    with pytest.raises(ValueError):
        YDObject.from_int(c.hopf, 3, c.alg)


@pytest.mark.parametrize(
    "action, coaction, message",
    [
        ([Matrix.identity(3)] * 4, None, r"yd.action\[0\]: expected 2 image vectors"),
        ([Matrix.identity(1)] * 4, None, r"yd.action\[0\]: expected 2 image vectors"),
        ([Matrix.identity(2)] * 3, None, r"yd.action: expected 4 rows \(one per Hopf basis element\)"),
        (None, [[1] + [0] * 8, [0] * 4 + [1] + [0] * 3], r"yd.coaction\[0\]: expected 2 carrier components"),
        (None, [[1] + [0] * 7], r"yd.coaction: expected 2 rows"),
        (None, [[1], [0]], r"yd.coaction\[0\]: expected 2 carrier components"),
    ],
    ids=["3x3 action", "1x1 action", "3 matrices", "coaction row of 9", "one coaction row", "short rows"],
)
def test_dense_constructor_names_a_wrong_shape(action, coaction, message):
    # a wider matrix used to lose its extra columns, a narrower one raised
    # IndexError and a long coaction row was accepted. A dense action or
    # coaction reaches the package through a definition file (action[i][j]
    # the column j of matrix i, coaction[j][a] the dim(H) entries of row j
    # from a·dim(H) on), whose loader names the field of the wrong shape
    obj = yd_to_json(build_C(CFamilyDescriptor(Q(3), Q(2), Q(5))), hopf_name="H4")
    if action is not None:
        obj["action"] = [[[str(x) for x in column(m, j)] for j in range(m.cols)] for m in action]
    if coaction is not None:
        obj["coaction"] = [[[str(x) for x in row[a:a + 4]] for a in range(0, len(row), 4)] for row in coaction]
    with pytest.raises(SchemaError, match=f"^{message}$"):
        load_yd(obj)


def test_carrier_is_frozen_and_computes_its_views_once():
    import dataclasses

    # one form: the stores, with no dense view to compute
    c = build_C(CFamilyDescriptor(Q(3), Q(2), Q(5)))
    assert not any(hasattr(c, name) for name in ("action", "coaction"))
    assert yd_rho(c) == [coaction_sparse(coaction_rows(c), 4, j) for j in range(2)]
    assert yd_images(c) == [
        [{k: v for k, v in enumerate(column(m, j)) if v} for m in action_matrices(c)] for j in range(2)
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.int_rho = ()
    with pytest.raises(ValueError):
        dense_yd(c.hopf, 3, c.alg)
    assert c.same_structure(build_C(CFamilyDescriptor(Q(3), Q(2), Q(5))))
    assert not c.same_structure(build_C(CFamilyDescriptor(Q(3), Q(2), Q(4))))
    assert not c.same_structure(dense_yd(c.hopf, 2, action=action_matrices(c), coaction=coaction_rows(c)))


def test_c_family_is_yd():
    for _ in range(6):
        d = CFamilyDescriptor(rnd(), rnd(), rnd())
        assert check_yd_algebra(build_C(d)).ok


def test_trivial_structure_is_yd():
    alg = dense_algebra(["1", "x"], [1, 0], [[[1, 0], [0, 1]], [[0, 1], [3, 0]]])
    assert check_yd_algebra(trivial_yd_on(alg)).ok


def test_dropping_s_term_still_yd():
    # removing the s⊗h term from ρ(x) just produces C(a;t,0), still valid
    d = CFamilyDescriptor(Q(1), Q(2), Q(3))
    c = build_C(d)
    dropped = [list(row) for row in coaction_rows(c)]
    dropped[1][0 * 4 + 2] = Q(0)
    assert check_yd_algebra(dense_yd(c.hopf, c.dim, c.alg, action_matrices(c), dropped)).ok


def test_corrupted_coaction_breaks_yd_only():
    # ρ(x) = x⊗1 with h·x = t ≠ 0: module, comodule and both algebra
    # compatibilities survive, but the compatibility condition does not
    c = build_C(CFamilyDescriptor(Q(1), Q(2), Q(0)))
    bad_coaction = [list(row) for row in coaction_rows(c)]
    bad_coaction[1][1 * 4 + 1] = Q(0)  # remove x⊗g
    bad_coaction[1][1 * 4 + 0] = Q(1)  # insert x⊗1
    bad = dense_yd(c.hopf, c.dim, c.alg, action_matrices(c), bad_coaction)
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
    assert action_matrices(back) == action_matrices(c)
    assert coaction_rows(back) == coaction_rows(c)


def test_phi_g_acts_by_coaction_pairing():
    double, _ = build_dh4()
    d = CFamilyDescriptor(Q(3), Q(2), Q(5))
    over_double = yd_to_double(build_C(d), double)
    from hopfbrauer.sweedler import dh4_named

    phig = dh4_named("phi_g")
    mat = zero_matrix(2, 2)
    for i, c in enumerate(phig):
        if c:
            mat = mat + action_matrices(over_double)[i] * c
    # ρ(x) = x⊗g + s⊗h and φ(g) pairs g ↦ −1, h ↦ 0, so φ(g)·x = −x
    assert column(mat, 1) == [Q(0), Q(-1)]
    assert column(mat, 0) == [Q(1), Q(0)]


def test_trivial_coaction_gives_identity_phi_g_action():
    alg = dense_algebra(["1", "x"], [1, 0], [[[1, 0], [0, 1]], [[0, 1], [3, 0]]])
    triv = trivial_yd_on(alg)
    double, _ = build_dh4()
    over_double = yd_to_double(triv, double)
    from hopfbrauer.sweedler import dh4_named

    phig = dh4_named("phi_g")
    mat = zero_matrix(2, 2)
    for i, c in enumerate(phig):
        if c:
            mat = mat + action_matrices(over_double)[i] * c
    assert mat == Matrix.identity(2)


def test_h_opposite_formula_and_validity():
    d = CFamilyDescriptor(rnd(), rnd(), rnd())
    c = build_C(d)
    opp = h_opposite(c)
    assert check_yd_algebra(opp).ok
    x = [Q(0), Q(1)]
    assert opp.alg.mul_vec(x, x) == [d.s * d.t - d.a, Q(0)]
    expected = build_C(c_opposite(d))
    assert opp.alg.same_product(expected.alg)


def test_h_opposite_of_trivial_structure_is_plain_opposite():
    alg = dense_algebra(
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

    assert opp.alg.same_product(opposite_algebra(alg))


def test_sharp_with_trivial_factor_is_isomorphic():
    d = CFamilyDescriptor(Q(3), Q(2), Q(5))
    c = build_C(d)
    one_dim = dense_algebra(["1"], [1], [[[1]]])
    s = sharp_product(c, trivial_yd_on(one_dim))
    assert check_yd_algebra(s).ok
    assert s.alg.same_product(c.alg)
    assert action_matrices(s) == action_matrices(c)
    assert coaction_rows(s) == coaction_rows(c)


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
    triv = dense_yd(
        h4,
        1,
        action=[Matrix([[counit_vec(h4)[i]]]) for i in range(4)],
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
    assert dense(f) == dense(Matrix(
        [
            [1, 0, 0, a],
            [0, 1, 1, 0],
            [0, st - a, a, 0],
            [1, 0, 0, st - a],
        ]
    ))
    assert dense(g) == dense(Matrix(
        [
            [1, 0, 0, a],
            [0, 1, 1, 0],
            [0, a, st - a, 0],
            [1, 0, 0, st - a],
        ]
    ))


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
        assert coaction_rows(induced) == coaction_rows(c)
        assert check_yd_algebra(induced).ok
        wrong = build_C(CFamilyDescriptor(a, t, l * t + 1))
        assert coaction_rows(induced_coaction(wrong, build_rt(l))) != coaction_rows(wrong)


def test_induced_action_forces_t_equals_sl():
    a, s = Q(2), Q(3)
    for l in (Q(0), Q(1), Q(-2, 3)):
        c = build_C(CFamilyDescriptor(a, s * l, s))
        induced = induced_action(c, build_rt_form(l))
        assert action_matrices(induced) == action_matrices(c)
        assert check_yd_algebra(induced).ok


def test_trivial_action_induces_trivial_coaction():
    alg = dense_algebra(["1", "x"], [1, 0], [[[1, 0], [0, 1]], [[0, 1], [5, 0]]])
    triv = trivial_yd_on(alg)
    for t in (Q(0), Q(7)):
        out = induced_coaction(triv, build_rt(t))
        assert coaction_rows(out) == coaction_rows(triv)


def test_lemma24_trivial_h_action_is_t_independent():
    a = Q(5)
    carrier = build_C(CFamilyDescriptor(a, 0, 0))
    base = induced_coaction(carrier, build_rt(0))
    f0, g0 = fg_maps(base)
    for t in (Q(1), Q(-3), Q(7, 2)):
        other = induced_coaction(carrier, build_rt(t))
        assert coaction_rows(other) == coaction_rows(base)
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
            for (i, j), coef in r_pairs(rt).items():
                wy = action_matrices(w)[j].apply(y)
                vx = action_matrices(v)[i].apply(x)
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
    left, right = yd_centralizers(c, [unit_vec(c.alg)])
    assert len(left) == 2 and len(right) == 2


def test_centers_trivial_for_azumaya():
    c = build_C(CFamilyDescriptor(Q(1), Q(1), Q(0)))
    full = [c.alg.basis_vec(0), c.alg.basis_vec(1)]
    left, right = yd_centralizers(c, full)
    assert len(left) == 1 and in_span(left, unit_vec(c.alg))
    assert len(right) == 1 and in_span(right, unit_vec(c.alg))


def test_centralizers_of_a_factor_are_pinned():
    # A#1 inside A#B for A = C(2/3;1,−1), B = C(−7/9;1/2,−4): basis e_0, e_2;
    # the bases were computed by the dense solver these replaced
    a = sharp_product(
        build_C(CFamilyDescriptor(Q(2, 3), Q(1), Q(-1))), build_C(CFamilyDescriptor(Q(-7, 9), Q(1, 2), Q(-4)))
    )
    left, right = yd_centralizers(a, [[Q(int(k == i)) for k in range(4)] for i in (0, 2)])
    assert left == [[1, 0, 0, 0], [0, Q(-2, 3), 1, 0]]
    assert right == [[1, 0, 0, 0], [0, 1, 0, 0]]


def _product_of_fields(n):
    """kⁿ with g acting trivially: every element commutes with g·z = z, and
    only the vectors with no zero coordinate are invertible."""
    table = [[[(i, 1)] if i == j else [] for j in range(n)] for i in range(n)]
    unit = 1, dict.fromkeys(range(n), 1)
    alg = StructureAlgebra.from_int([f"e{i}" for i in range(n)], unit, table, 1, name=f"k^{n}")
    return dense_yd(build_h4(), n, alg, [Matrix.identity(n)] * 4)


def test_conjugation_implementer_candidate_order():
    # k²: no kernel vector is invertible, the pairwise sum e₀ + e₁ is; k³ and
    # k⁴: no pairwise sum is either, so the first pseudo-random combination
    # with no zero coefficient is returned (values from the eager search)
    assert conjugation_implementer(_product_of_fields(2), 1) == [1, 1]
    assert conjugation_implementer(_product_of_fields(3), 1) == [1, -4, -2]
    assert conjugation_implementer(_product_of_fields(4), 1) == [1, -4, -2, -4]


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
    alg = dense_algebra(["1", "x"], [1, 0], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    h4 = build_h4()
    action = [Matrix.identity(2), diag([1, -1]), zero_matrix(2, 2), zero_matrix(2, 2)]
    a = dense_yd(h4, alg.dim, alg, action)
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
        assert s.alg.mul_vec(u, u) == unit_vec(s.alg)
        anti = [x + y for x, y in zip(s.alg.mul_vec(w, u), s.alg.mul_vec(u, w))]
        assert is_zero_vec(anti)


def test_strongly_inner_trivial_action():
    from hopfbrauer.algebra import endomorphism_algebra

    h4 = build_h4()
    end = endomorphism_algebra(2)
    action = [Matrix.identity(4) * counit_vec(h4)[i] for i in range(4)]
    a = dense_yd(h4, end.dim, end, action)
    u, w, beta = strongly_inner_witness_h4(a)
    assert u == unit_vec(end)
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
        assert matrix.apply(unit_vec(source.alg)) == unit_vec(target.alg)
        for i in range(4):
            for j in range(4):
                lhs = matrix.apply(source.alg.mul_vec(source.alg.basis_vec(i), source.alg.basis_vec(j)))
                rhs = target.alg.mul_vec(matrix.apply(source.alg.basis_vec(i)),
                                         matrix.apply(source.alg.basis_vec(j)))
                assert lhs == rhs
        for h in range(4):
            for j in range(4):
                assert matrix.apply(column(action_matrices(source)[h], j)) == \
                    action_matrices(target)[h].apply(matrix.apply(source.alg.basis_vec(j)))
        for j in range(4):
            lhs = zero_vec(16)
            for p, k, c in coaction_sparse(coaction_rows(source), 4, j):
                for q, v in enumerate(matrix.apply(source.alg.basis_vec(p))):
                    lhs[q * 4 + k] += c * v
            rhs = zero_vec(16)
            for p, c in enumerate(matrix.apply(source.alg.basis_vec(j))):
                if c:
                    for kk, v in enumerate(coaction_rows(target)[p]):
                        rhs[kk] += c * v
            assert lhs == rhs


def test_grading_error_on_non_homogeneous_basis():
    from hopfbrauer.yd import GradingError, action_grading

    h4 = build_h4()
    swap = Matrix([[0, 1], [1, 0]])
    mod = dense_yd(h4, 2, action=[Matrix.identity(2), swap, zero_matrix(2, 2), zero_matrix(2, 2)])
    from hopfbrauer.yd import check_module

    assert check_module(mod).ok
    with pytest.raises(GradingError):
        action_grading(mod, h4.meta["g"])


@pytest.mark.parametrize(
    "rho_x, parity",
    [
        ([(1, 0, 1)], 0),
        ([(1, 1, 1)], 1),
        ([(0, 2, 5), (1, 1, 1)], 1),  # the h part is projected away
        ([(0, 1, 1), (1, 0, 1)], None),
        ([(1, 0, 1), (1, 1, 1)], None),
        ([(1, 0, 2)], None),
        ([(0, 0, 1)], None),
    ],
)
def test_coaction_grading_reads_the_grouplike_part(rho_x, parity):
    from hopfbrauer.yd import GradingError, coaction_grading

    h4 = build_h4()
    obj = sparse_yd(h4, 2, rho=[[(0, 0, 1)], rho_x])
    if parity is None:
        with pytest.raises(GradingError):
            coaction_grading(obj, h4.meta["pi_keep"])
    else:
        assert coaction_grading(obj, h4.meta["pi_keep"]) == (0, parity)


def test_solve_linear_dimension_mismatch():
    from hopfbrauer.linalg import DimensionError, solve_linear

    with pytest.raises(DimensionError):
        solve_linear(Matrix.identity(2), [Q(1)])


def test_cocycle_twist_rejects_invalid_cocycle():
    from hopfbrauer.sweedler import LazyCocycle, cocycle_twist

    bad = LazyCocycle(Q(1), (1, [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]))
    with pytest.raises(AssertionError):
        cocycle_twist(build_C(CFamilyDescriptor(Q(1), Q(0), Q(1))), bad)


def _kernel_rats():
    """The 13 random rationals of the kernel cases, drawn in the order the
    cases read them: three C(a;t,s), then α, then C(a;t₁,t₂) over E(2)."""
    local = random.Random(2718)

    def rat():
        n = 0
        while n == 0:
            n = local.randint(-9, 9)
        return Q(n, local.randint(1, 9))

    return [rat() for _ in range(13)]


KERNEL_RATS = _kernel_rats()


def _c(i):
    return build_C(CFamilyDescriptor(*KERNEL_RATS[3 * i:3 * i + 3]))


# one builder per case, run by ``kernel_case`` on first use: a builder that
# raises fails the tests of its case, not the collection of this file
KERNEL_BUILDERS = {
    "C(a;t,s)": lambda: _c(0),
    "singular C": lambda: build_C(CFamilyDescriptor(Q(3), Q(2), Q(3))),  # 2a = st
    "C#C d=4": lambda: sharp_product(_c(0), _c(1)),
    "C#C#C d=8": lambda: sharp_product(kernel_case("C#C d=4"), _c(2)),
    "A_alpha": lambda: aut_algebra(KERNEL_RATS[9]),
    "H-opposite of C#C": lambda: h_opposite(kernel_case("C#C d=4")),
    "C(a;t1,t2) over E(2)": lambda: build_c_e2(*KERNEL_RATS[10:]),
}


@cache
def kernel_case(name):
    """The kernel case ``name``, built once."""
    return KERNEL_BUILDERS[name]()


def _perturbed(a):
    """``a`` with one structure constant of its product changed, so the
    product is no longer associative."""
    mult = dense_mult(a.alg)
    mult[1][a.dim - 1][0] += Q(1)
    alg = dense_algebra(a.alg.basis, unit_vec(a.alg), mult)
    return dense_yd(a.hopf, a.dim, alg, action_matrices(a), coaction_rows(a))


@pytest.mark.parametrize("name", sorted(KERNEL_BUILDERS))
def test_fg_maps_match_dense_reference(name):
    a = kernel_case(name)
    assert fg_maps(a) == reference.fg(a)


def test_fg_maps_match_reference_without_associativity():
    a = _perturbed(kernel_case("C#C d=4"))
    assert fg_maps(a) == reference.fg(a)


@pytest.mark.parametrize("name", ["C(a;t,s)", "C#C d=4", "C#C#C d=8", "C(a;t1,t2) over E(2)"])
def test_h_opposite_matches_dense_reference(name):
    a = kernel_case(name)
    want = dense_algebra(a.alg.basis, unit_vec(a.alg), reference.h_opposite_table(a))
    assert h_opposite(a).alg.same_product(want)


def test_yd_algebra_checks_report_reference_failures():
    from hopfbrauer.yd import check_comodule_algebra_op

    good = kernel_case("C#C d=4")
    bad = _perturbed(good)
    module_law = [f for f in check_module_algebra(bad).failures if "module-algebra law" in f]
    comodule_law = [f for f in check_comodule_algebra_op(bad).failures if "H^op-multiplicative" in f]
    assert module_law and module_law == [f for f in reference.module_algebra(bad) if "module-algebra law" in f]
    assert comodule_law and comodule_law == [
        f for f in reference.comodule_algebra_op(bad) if "H^op-multiplicative" in f
    ]
    assert reference.module_algebra(good) == []
    assert reference.comodule_algebra_op(good) == []


def test_corruption_failure_messages_are_pinned():
    c = build_C(CFamilyDescriptor(Q(1), Q(2), Q(0)))
    bad_coaction = [list(row) for row in coaction_rows(c)]
    bad_coaction[1][1 * 4 + 1] = Q(0)
    bad_coaction[1][1 * 4 + 0] = Q(1)
    assert check_yd_algebra(dense_yd(c.hopf, c.dim, c.alg, action_matrices(c), bad_coaction)).failures == [
        "Yetter-Drinfeld condition over H4: YD condition fails at (l=h, b=index 1)",
        "Yetter-Drinfeld condition over H4: YD condition fails at (l=gh, b=index 1)",
    ]
    action = list(action_matrices(c))
    action[c.hopf.meta["h"]] = action[c.hopf.meta["h"]] * 2
    prefix = "module algebra over H4: H-module over H4: action not multiplicative at"
    assert check_yd_algebra(dense_yd(c.hopf, c.dim, c.alg, action, coaction_rows(c))).failures == [
        f"{prefix} (g,h)", f"{prefix} (g,gh)", f"{prefix} (h,g)", f"{prefix} (gh,g)",
    ]
