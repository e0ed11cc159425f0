import hashlib
import json
import math
from fractions import Fraction as Q

import pytest

from conftest import (
    counit_vec,
    dense,
    dense_algebra,
    dense_cop,
    dense_hopf,
    dense_mult,
    diag,
    form_matrix,
    int_form,
    r_vec,
    s_cols,
    s_matrix,
    transpose,
    unit_vec,
    zero_matrix,
)

from hopfbrauer.algebra import StructureAlgebra
from hopfbrauer.defio import SchemaError, hopf_to_json, load_hopf
from hopfbrauer.e2 import build_e2
from hopfbrauer import hopf
from hopfbrauer.hopf import (
    CoQTStructure,
    HopfAlgebra,
    HopfMorphism,
    QTStructure,
    antipode_from_bialgebra,
    check_coquasitriangular,
    check_hopf_axioms,
    check_hopf_morphism,
    check_quasitriangular,
    coqt_structure,
    drinfeld_double,
    dual_hopf,
    push_qt,
    qt_structure,
)
from hopfbrauer.linalg import Matrix, format_rational, mat_det, zero_vec
from hopfbrauer.sweedler import (
    LazyCocycle,
    build_dh4,
    build_h4,
    build_h4_dual,
    build_rt,
    build_rt_form,
    dh4_named,
    dh4_relations,
    phi_iso,
)


def group_hopf_z2() -> HopfAlgebra:
    alg = dense_algebra(["1", "g"], [1, 0], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], name="kZ2")
    cop = [zero_vec(4), zero_vec(4)]
    cop[0][0] = Q(1)        # 1⊗1
    cop[1][1 * 2 + 1] = Q(1)  # g⊗g
    return dense_hopf(alg, cop, [1, 1], Matrix.identity(2), name="kZ2")


def test_h4_axioms():
    assert check_hopf_axioms(build_h4()).ok


def test_e2_axioms():
    assert check_hopf_axioms(build_e2()).ok


def test_h4_dual_axioms():
    assert check_hopf_axioms(build_h4_dual()).ok


def test_corrupted_antipode_fails():
    h4 = build_h4()
    bad = dense_hopf(h4.alg, dense_cop(h4), counit_vec(h4), Matrix.identity(4), name="bad")
    rep = check_hopf_axioms(bad)
    assert not rep.ok
    assert any("S" in f and "Δ" in f for f in rep.failures)


# S and S⁻¹ (None: the field is left out) and the field path the refusal names
WRONG_SHAPES = {
    "3x3 S": lambda h4: (Matrix.identity(3), None, "hopf.antipode: expected 4 rows"),
    "4x5 S": lambda h4: (zero_matrix(4, 5), None, r"hopf.antipode\[0\]: expected 4 entries, got 5"),
    "5x4 S": lambda h4: (zero_matrix(5, 4), None, "hopf.antipode: expected 4 rows"),
    "3x3 S_inv": lambda h4: (s_matrix(h4), Matrix.identity(3), "hopf.antipode_inv: expected 4 rows"),
    "4x5 S_inv": lambda h4: (s_matrix(h4), zero_matrix(4, 5), r"hopf.antipode_inv\[0\]: expected 4 entries, got 5"),
}


@pytest.mark.parametrize("shape", WRONG_SHAPES)
def test_a_wrongly_shaped_antipode_is_rejected(shape):
    # such an S used to construct, and check_hopf_axioms and drinfeld_double
    # then died with IndexError; a dense S reaches the package through a
    # definition file, whose loader checks its shape
    h4 = build_h4()
    antipode, antipode_inv, message = WRONG_SHAPES[shape](h4)
    obj = {k: v for k, v in hopf_to_json(h4).items() if k != "antipode_inv"}
    for key, m in (("antipode", antipode), ("antipode_inv", antipode_inv)):
        if m is not None:
            obj[key] = [[format_rational(x) for x in row] for row in dense(m)]
    with pytest.raises(SchemaError, match=f"^{message}$"):
        load_hopf(obj)


@pytest.mark.parametrize(
    "s, s_inv",
    [
        ([{0: 1}, {1: 1}, {3: 1}], None),
        ([{0: 1}, {1: 1}, {3: 1}, {2: -1}, {0: 1}], None),
        ([{0: 1}, {1: 1}, {3: 1}, {2: -1}], [{0: 1}, {1: 1}]),
    ],
    ids=["3 columns", "5 columns", "2 columns of S_inv"],
)
def test_a_wrong_number_of_sparse_antipode_columns_is_rejected(s, s_inv):
    h4 = build_h4()
    with pytest.raises(ValueError, match="expected 4×4"):
        HopfAlgebra.from_int(h4.alg, h4.int_cop, h4.int_counit, (1, s), s_inv and (1, s_inv))


@pytest.mark.parametrize(
    "column", [{4: 1}, {-1: 1}, {0: 0}, {0: 0.5}, {"0": 1}], ids=["index=dim", "index<0", "zero", "float", "string"]
)
def test_a_bad_sparse_antipode_entry_is_rejected(column):
    h4 = build_h4()
    (_, s_cols), (_, s_inv_cols) = h4.int_s, h4.int_s_inv  # both over 1
    for s, s_inv in (([column] + s_cols[1:], None), (s_cols, s_inv_cols[:3] + [column])):
        with pytest.raises(ValueError):
            HopfAlgebra.from_int(h4.alg, h4.int_cop, h4.int_counit, (1, s), s_inv and (1, s_inv))


def test_the_antipode_is_stored_as_sparse_columns():
    h4 = build_h4()
    assert s_cols(h4) == [{0: 1}, {1: 1}, {3: 1}, {2: -1}]
    assert s_cols(h4, inverse=True) == [{0: 1}, {1: 1}, {3: -1}, {2: 1}]
    dense = dense_hopf(h4.alg, dense_cop(h4), counit_vec(h4), s_matrix(h4))
    assert s_cols(dense) == s_cols(h4) and s_cols(dense, inverse=True) == s_cols(h4, inverse=True)
    assert s_matrix(dense, inverse=True) == s_matrix(h4).inverse()
    assert s_matrix(dual_hopf(h4)) == transpose(s_matrix(h4))


# the failure lists of the dense matrix-product check, message for message
ANTIPODE_FAILURES = {
    "identity S": (
        Matrix.identity(4), None,
        ["m(S⊗id)Δ fails at h", "m(id⊗S)Δ fails at h", "m(S⊗id)Δ fails at gh", "m(id⊗S)Δ fails at gh"],
    ),
    "S=diag(-1,1,1,1)": (
        diag([-1, 1, 1, 1]), None,
        ["m(S⊗id)Δ fails at 1", "m(id⊗S)Δ fails at 1", "m(S⊗id)Δ fails at h", "m(id⊗S)Δ fails at h",
         "m(S⊗id)Δ fails at gh", "m(id⊗S)Δ fails at gh"],
    ),
    "wrong S_inv": (None, diag([1, 1, 1, 2]), ["S∘S⁻¹ ≠ id", "S⁻¹∘S ≠ id"]),
}


@pytest.mark.parametrize("case", ANTIPODE_FAILURES)
def test_antipode_failure_lists_are_pinned(case):
    h4 = build_h4()
    antipode, antipode_inv, want = ANTIPODE_FAILURES[case]
    bad = dense_hopf(h4.alg, dense_cop(h4), counit_vec(h4), antipode or s_matrix(h4), antipode_inv, name="bad")
    assert check_hopf_axioms(bad).failures == want
    with pytest.raises(ValueError, match="closed-form antipode fails: "):
        drinfeld_double(bad)


def _with(h, cop=None, counit=None, antipode=None):
    return dense_hopf(
        h.alg,
        cop or dense_cop(h),
        counit or counit_vec(h),
        antipode or s_matrix(h),
        None if antipode else s_matrix(h, inverse=True),
        name="bad",
    )


def _bump(h, i, k, delta):
    cop = dense_cop(h)
    cop[i][k] += delta
    return cop


# (count, sha256 of the newline-joined failures), measured with the earlier
# dense Δ-multiplicativity and antipode loops: same messages, same order
@pytest.mark.parametrize(
    "make_bad, count, digest",
    [
        (
            lambda: _with(build_h4(), antipode=Matrix.identity(4)),
            4,
            "b938c6b0a02c13e9578037bae3c4334671367304a0d749dc4226d3fb7eee1b39",
        ),
        (
            lambda: _with(build_h4(), cop=_bump(build_h4(), 2, 5, Q(1, 2))),
            12,
            "f5434e5c4d61617c56141f259a897a2aad479062b8f702c0a9e91862e68f8866",
        ),
        (
            lambda: _with(build_e2(), cop=_bump(build_e2(), 3, 17, Q(-2))),
            21,
            "4870c279a2efe615f0f21e1a5b68cc99b47cd2119f302d83be2501db3d2b5666",
        ),
        (
            lambda: _with(build_h4(), counit=[Q(1), Q(1), Q(1), Q(0)]),
            9,
            "1738a65dce5950194cd24e9b31b39f7fc7ec200bf1fc8aa402dc76b520c3f989",
        ),
    ],
    ids=["identity antipode", "H4 coproduct", "E2 coproduct", "H4 counit"],
)
def test_hopf_axiom_failures_are_pinned(make_bad, count, digest):
    failures = check_hopf_axioms(make_bad()).failures
    assert len(failures) == count
    assert hashlib.sha256("\n".join(failures).encode()).hexdigest() == digest


def test_kz2_self_dual():
    kz2 = group_hopf_z2()
    dual = dual_hopf(kz2)
    assert check_hopf_axioms(dual).ok
    iso = HopfMorphism(kz2, dual, Matrix.from_cols([[1, 1], [1, -1]]))
    assert check_hopf_morphism(iso).ok


def test_phi_is_hopf_isomorphism():
    rep = check_hopf_morphism(phi_iso())
    assert rep.ok
    assert mat_det(phi_iso().matrix) != 0


def test_double_dual_canonical():
    h4 = build_h4()
    dd = dual_hopf(dual_hopf(h4))
    assert dd.alg.same_product(h4.alg)
    assert dd.same_coproduct(h4)
    assert counit_vec(dd) == counit_vec(h4)
    assert s_matrix(dd) == s_matrix(h4)


def test_drinfeld_double_of_kz2():
    double, canonical = drinfeld_double(group_hopf_z2())
    assert double.dim == 4
    assert check_hopf_axioms(double).ok
    assert check_quasitriangular(double, canonical).ok


def test_dh4_dimension_axioms_and_relations():
    double, canonical = build_dh4()
    assert double.dim == 16
    assert check_hopf_axioms(double).ok
    relations = dh4_relations()
    assert len(relations) == 10
    assert [label for label, val in relations if any(val)] == []
    rep = check_quasitriangular(double, canonical)
    assert rep.ok
    assert rep.data["triangular"] is False


def test_dh4_key_relation_explicitly():
    double, _ = build_dh4()
    a = double.alg
    fh, h, fg, g = dh4_named("phi_h"), dh4_named("h"), dh4_named("phi_g"), dh4_named("g")
    lhs = [x - y for x, y in zip(a.mul_vec(fh, h), a.mul_vec(h, fh))]
    rhs = [x - y for x, y in zip(fg, g)]
    assert lhs == rhs
    assert a.mul_vec(g, g) == unit_vec(a)
    assert a.mul_vec(fg, fg) == unit_vec(a)


@pytest.mark.parametrize("t", [Q(0), Q(1), Q(-3, 2), Q(7, 5)])
def test_rt_is_triangular(t):
    rep = check_quasitriangular(build_h4(), build_rt(t))
    assert rep.ok and rep.data["triangular"]


@pytest.mark.parametrize("t", [Q(0), Q(1), Q(-3, 2), Q(7, 5)])
def test_rt_form_is_cotriangular(t):
    rep = check_coquasitriangular(build_h4(), build_rt_form(t))
    assert rep.ok and rep.data["cotriangular"]


@pytest.mark.parametrize("t", [Q(0), Q(-3, 2), Q(7, 5)])
def test_coqt_store_is_in_lowest_terms(t):
    # r and r⁻¹ handed over at any common scale are stored reduced, so equal
    # forms have equal stores and the cotriangular flag compares integers
    h4, ct = build_h4(), build_rt_form(t)
    (den, r), (den_i, ri) = ct.int_table, ct.int_inv
    assert math.gcd(den, *(v for row in r for v in row)) == 1
    assert math.gcd(den_i, *(v for row in ri for v in row)) == 1
    moved = CoQTStructure(
        h4, (6 * den, [[6 * v for v in row] for row in r]), (35 * den_i, [[35 * v for v in row] for row in ri])
    )
    assert (moved.int_table, moved.int_inv) == (ct.int_table, ct.int_inv)
    assert check_coquasitriangular(h4, moved).data["cotriangular"]
    assert form_matrix(*moved.int_table) == form_matrix(*ct.int_table)
    assert form_matrix(*moved.int_inv) == form_matrix(*ct.int_inv)


def _unit_stores():
    from test_integer_scaling import H4_SCALES, _rescaled_hopf

    h4, e2 = build_h4(), build_e2()
    for h in (h4, build_h4_dual(), build_dh4()[0], e2, drinfeld_double(e2)[0], _rescaled_hopf(h4, H4_SCALES)):
        yield h.name, h.alg.int_unit, unit_vec(h.alg)
        yield h.name, h.int_counit, counit_vec(h)


def test_unit_and_counit_stores_are_in_lowest_terms():
    # each store is (D, D·v) for D the least common denominator of the view
    # v, its keys in order, and a store handed over at any scale is reduced
    stores = list(_unit_stores())
    assert any(den > 1 for _, (den, _), _ in stores)  # the rescaled H₄
    for name, (den, v), view in stores:
        assert den == math.lcm(*(c.denominator for c in view)), name
        assert math.gcd(den, *v.values()) == 1 and list(v) == sorted(v), name
        assert {k: Q(c, den) for k, c in v.items()} == {k: c for k, c in enumerate(view) if c}, name
    h4 = build_h4()
    alg = StructureAlgebra.from_int(h4.alg.basis, (6, {0: 6}), h4.alg.int_sp[1], h4.alg.int_sp[0])
    moved = HopfAlgebra.from_int(alg, h4.int_cop, (35, {1: 35, 0: 35}), h4.int_s, h4.int_s_inv)
    assert (alg.int_unit, moved.int_counit) == (h4.alg.int_unit, h4.int_counit)
    assert list(moved.int_counit[1]) == [0, 1]


@pytest.mark.parametrize("t", [Q(0), Q(3, 2), Q(-7)])
def test_closed_form_inverses_equal_the_solved_ones(t):
    # R_t is triangular and r_t cotriangular, so their inverses are (R_t)₂₁
    # and r_tᵀ: closed forms independent of the (S⊗id)R and r∘(S⊗id) derived
    rt, form = build_rt(t), build_rt_form(t)
    assert r_vec(rt, inverse=True) == [r_vec(rt)[(k % 4) * 4 + k // 4] for k in range(16)]
    assert form_matrix(*form.int_inv) == transpose(form_matrix(*form.int_table))


def test_wrong_known_inverses_are_rejected():
    # 2·(1⊗1) and 2·(ε⊗ε) have the inverses ½·(1⊗1) and ½·(ε⊗ε), but they
    # are not (co)quasitriangular, so (S⊗id)R and r∘(S⊗id) are not those
    h4 = build_h4()
    two = zero_vec(16)
    two[0] = Q(2)
    with pytest.raises(ValueError, match="not the inverse of R"):
        qt_structure(h4, two)
    with pytest.raises(ValueError, match="not the convolution inverse of r"):
        coqt_structure(h4, int_form(Matrix([[2 * a * b for b in counit_vec(h4)] for a in counit_vec(h4)])))
    # one perturbed coefficient of R_t
    wrong = list(r_vec(build_rt(Q(3, 2))))
    wrong[5] += 1
    with pytest.raises(ValueError, match="not the inverse of R"):
        qt_structure(h4, wrong)


@pytest.mark.parametrize("length", [3, 15, 17])
def test_qt_structure_rejects_a_misshapen_r(length):
    with pytest.raises(ValueError, match="expected dim²"):
        qt_structure(build_h4(), [1] * length)


@pytest.mark.parametrize("shape", [(2, 2), (4, 3), (3, 4), (5, 5)])
def test_coqt_structure_rejects_a_misshapen_form(shape):
    bad = Matrix([[Q(int(i == j)) for j in range(shape[1])] for i in range(shape[0])])
    with pytest.raises(ValueError, match="expected 4×4"):
        coqt_structure(build_h4(), int_form(bad))


SIGMA_ROWS = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 1, -1]]
BAD_TABLES = {
    "2x2": ((1, [[1, 0], [0, 1]]), "expected 4×4"),
    "scale 0": ((0, SIGMA_ROWS), "not a positive int"),
    "scale -2": ((-2, SIGMA_ROWS), "not a positive int"),
    "float scale": ((2.0, SIGMA_ROWS), "not a positive int"),
    "float entry": ((2, [SIGMA_ROWS[0], SIGMA_ROWS[1], [0, 0, 0.5, -1], SIGMA_ROWS[3]]), "not an int"),
    # R or R⁻¹ as (D, {(i, j): int}); each was stored unchecked (scale 0
    # raised ZeroDivisionError, a float coefficient TypeError)
    "R key (9, 9)": ((1, {(0, 0): 1, (9, 9): 1}), r"^sparse term index \(9, 9\) is not in range\(4\)×range\(4\)$"),
    # a key that is no pair is named with None for its missing second index
    "R key 5": ((1, {(0, 0): 1, 5: 1}), r"^sparse term index \(5, None\) is not in range\(4\)×range\(4\)$"),
    "R key (1, 2, 3)": ((1, {(1, 2, 3): 1}), r"^sparse term index \(\(1, 2, 3\), None\) is not in range"),
    "R scale 0": ((0, {(0, 0): 1}), "^scale 0 is not a positive int$"),
    "R scale -2": ((-2, {(0, 0): 1}), "^scale -2 is not a positive int$"),
    "R float": ((2, {(0, 0): 1, (1, 1): 0.5}), r"^sparse term index \(1, 1\) has coefficient 0.5, not a nonzero int$"),
    "R zero": ((2, {(0, 0): 1, (3, 2): 0}), r"^sparse term index \(3, 2\) has a zero coefficient, not a nonzero int$"),
}


@pytest.mark.parametrize("table, message", BAD_TABLES.values(), ids=BAD_TABLES)
def test_integer_forms_are_refused_with_a_clean_error(table, message):
    # a 2×2 σ used to raise IndexError in check_lazy_cocycle, and D_s = 0
    # was accepted and then reported as "σ(1⊗·) ≠ ε"
    h4 = build_h4()
    if isinstance(table[1], dict):
        good = build_rt(Q(3, 2)).int_pairs
        builds = (lambda: QTStructure(h4, table, good), lambda: QTStructure(h4, good, table))
    else:
        good = build_rt_form(Q(3, 2)).int_table
        builds = (lambda: LazyCocycle(Q(2), table), lambda: CoQTStructure(h4, table, good),
                  lambda: CoQTStructure(h4, good, table), lambda: coqt_structure(h4, table))
    for build in builds:
        with pytest.raises(ValueError, match=message):
            build()


def test_unit_tensor_fails_qt_on_h4():
    h4 = build_h4()
    r = zero_vec(16)
    r[0] = Q(1)  # 1⊗1
    rep = check_quasitriangular(h4, qt_structure(h4, r))
    assert not rep.ok
    assert any("Δ^cop" in f for f in rep.failures)


def test_phi_push_matches_rt_table():
    for t in (Q(0), Q(2), Q(-5, 3)):
        rt = build_rt(t)
        den, pushed = push_qt(phi_iso(), rt)
        # in lowest terms, keys in order, as QTStructure stores R
        assert math.gcd(den, *pushed.values()) == 1 and list(pushed) == sorted(pushed)
        table = [[Q(pushed.get((u, v), 0), den) for v in range(4)] for u in range(4)]
        assert table == dense(form_matrix(*build_rt_form(t).int_table))


def test_identity_morphism():
    h4 = build_h4()
    assert check_hopf_morphism(HopfMorphism(h4, h4, Matrix.identity(4))).ok


def test_morphism_rejects_non_algebra_map():
    h4 = build_h4()
    bad = diag([1, 1, 2, 1])  # scaling h alone breaks Δ-compatibility
    rep = check_hopf_morphism(HopfMorphism(h4, h4, bad))
    assert not rep.ok


# -- Drinfeld doubles: closed-form antipode and R⁻¹ ---------------------------


def _sparse_dump(v):
    return [[k, format_rational(c)] for k, c in enumerate(v) if c]


def double_sha256(double, qt) -> str:
    """sha256 of a canonical JSON dump of a double and its R, R⁻¹."""
    a = double.alg
    obj = {
        "basis": a.basis,
        "unit": _sparse_dump(unit_vec(a)),
        "mult": [[_sparse_dump(v) for v in row] for row in dense_mult(a)],
        "cop": [_sparse_dump(c) for c in dense_cop(double)],
        "counit": _sparse_dump(counit_vec(double)),
        "antipode": [_sparse_dump(r) for r in dense(s_matrix(double))],
        "antipode_inv": [_sparse_dump(r) for r in dense(s_matrix(double, inverse=True))],
        "r": _sparse_dump(r_vec(qt)),
        "r_inv": _sparse_dump(r_vec(qt, inverse=True)),
    }
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()


# Computed with the earlier build, which solved for the antipode and for R⁻¹.
@pytest.mark.parametrize(
    "build, digest",
    [
        (build_h4, "f64da95fb44de20b366e44f8565cc5c8024eb035478dd442b5f97212373f8f03"),
        (build_e2, "ffce297e163310dc00d4ff84957c699f5ad17f73bba57daf80405fd33f4f3dea"),
    ],
    ids=["H4", "E2"],
)
def test_double_tensors_are_pinned(build, digest):
    h = build()
    double, qt = drinfeld_double(h)
    assert double_sha256(double, qt) == digest
    assert double.meta == {"double_of": h.name, "factor_dim": h.dim}


@pytest.mark.parametrize("build", [group_hopf_z2, build_h4])
def test_closed_form_antipode_matches_the_solved_one(build):
    double, _ = drinfeld_double(build())
    solved = antipode_from_bialgebra(double.alg, double.int_cop, double.int_counit)
    assert s_matrix(double) == solved
    assert s_matrix(double, inverse=True) == solved.inverse()


def test_double_of_e2_passes_hopf_and_qt_checks():
    double, canonical = drinfeld_double(build_e2())
    assert double.dim == 64
    assert check_hopf_axioms(double).ok
    rep = check_quasitriangular(double, canonical)
    assert rep.ok and rep.data["triangular"] is False


def test_double_rejects_corrupted_antipode_inv():
    h4 = build_h4()
    bad = dense_hopf(h4.alg, dense_cop(h4), counit_vec(h4), s_matrix(h4), Matrix.identity(4), name="bad")
    with pytest.raises(ValueError):
        drinfeld_double(bad)


def test_double_rejects_corrupted_antipode():
    # S enters only the closed-form S_D and R⁻¹, not the product, so the
    # convolution check is what must catch it
    h4 = build_h4()
    bad = dense_hopf(h4.alg, dense_cop(h4), counit_vec(h4), Matrix.identity(4), s_matrix(h4, inverse=True), name="bad")
    with pytest.raises(ValueError, match="antipode fails"):
        drinfeld_double(bad)


def test_double_checks_r_inverse(monkeypatch):
    h4 = build_h4()
    bad = dense_hopf(h4.alg, dense_cop(h4), counit_vec(h4), Matrix.identity(4), s_matrix(h4, inverse=True), name="bad")
    monkeypatch.setattr(hopf, "antipode_failures", lambda *args: iter(()))
    with pytest.raises(ValueError, match="not the inverse of R"):
        drinfeld_double(bad)
