"""The integer constructors of ``StructureAlgebra`` and ``HopfAlgebra``.

``dual_hopf`` and ``drinfeld_double`` hand their products and coproducts to
the ``from_int`` constructors as integer terms over one scale. These tests
compare every stored table, unit, counit and antipode with the earlier dense
build, whose loops are kept below as the reference, check that ``from_int``
gives the algebra that the same constants give as rationals scaled once
(``_sparse_algebra``), and check that sparse tables scaled into ``from_int``
are rejected when malformed as the dense ones are.
"""

import random
from fractions import Fraction as Q

import pytest

from conftest import (
    column,
    cop_sparse,
    counit_vec,
    dense,
    dense_algebra,
    dense_cop,
    dense_hopf,
    dense_mult,
    diag,
    fraction_cop,
    fraction_table,
    mul_basis,
    mul_sparse,
    s_matrix,
    scaled_cells,
    sweedler2,
    transpose,
    unit_vec,
)
from test_integer_scaling import H4_SCALES, _rescaled_hopf

from hopfbrauer.algebra import StructureAlgebra, opposite_algebra
from hopfbrauer.defio import SchemaError, load_algebra, load_hopf
from hopfbrauer.e2 import build_e2
from hopfbrauer.hopf import HopfAlgebra, check_hopf_axioms, drinfeld_double, dual_hopf, qt_structure
from hopfbrauer.linalg import Matrix, dense_vec, scaled, scaled_rows, sparse_vec, zero_vec
from hopfbrauer.sweedler import build_h4


# -- the earlier dense builds, kept as the reference ---------------------------


def _reference_dual(h: HopfAlgebra) -> HopfAlgebra:
    n = h.dim
    basis = [b + "*" for b in h.alg.basis]
    mult = [[zero_vec(n) for _ in range(n)] for _ in range(n)]
    for m in range(n):
        for p, q, c in cop_sparse(h, m):
            mult[p][q][m] += c
    alg = dense_algebra(basis, counit_vec(h), mult, name=(h.name or "H") + "*")
    cop = [zero_vec(n * n) for _ in range(n)]
    for u in range(n):
        for v in range(n):
            for i, c in mul_basis(h.alg, u, v):
                cop[i][u * n + v] += c
    return dense_hopf(
        alg, cop, list(unit_vec(h.alg)), transpose(s_matrix(h)), transpose(s_matrix(h, inverse=True)), name=alg.name
    )


def _bowtie(n, f, a):
    return {i * n + j: x * y for i, x in f.items() for j, y in a.items()}


def _reference_double(h: HopfAlgebra) -> HopfAlgebra:
    hd = _reference_dual(h)
    ha, da = h.alg, hd.alg
    n = h.dim
    big = n * n
    one = Q(1)
    basis = [f"{da.basis[i]}⋈{ha.basis[j]}" for i in range(n) for j in range(n)]
    eps = sparse_vec(unit_vec(da))
    unit_h = sparse_vec(unit_vec(ha))
    unit = dense_vec(_bowtie(n, eps, unit_h), big)

    lam = {}
    for r in range(n):
        sinv_r = sparse_vec(column(s_matrix(h, inverse=True), r))
        for m in range(n):
            left = mul_sparse(ha, sinv_r, {m: one})
            for p in range(n):
                for i2, c in mul_sparse(ha, left, {p: one}).items():
                    lam.setdefault((p, r, i2), {})[m] = c

    mult = [[zero_vec(big) for _ in range(big)] for _ in range(big)]
    for j in range(n):
        sw2 = sweedler2(h, j)
        for i2 in range(n):
            terms = [(q, c, lam[(p, r, i2)]) for p, q, r, c in sw2 if (p, r, i2) in lam]
            for i in range(n):
                fparts = {}
                for q, c, lm in terms:
                    mul_sparse(da, {i: c}, lm, fparts.setdefault(q, {}))
                row = mult[i * n + j]
                for j2 in range(n):
                    out = row[i2 * n + j2]
                    for q, fpart in fparts.items():
                        hq = mul_basis(ha, q, j2)
                        for wi, fv in fpart.items():
                            for hj, hv in hq:
                                out[wi * n + hj] += fv * hv
    alg = dense_algebra(basis, unit, mult, name=f"D({h.name or 'H'})")

    cop = [zero_vec(big * big) for _ in range(big)]
    for i in range(n):
        for j in range(n):
            row = cop[i * n + j]
            for u, v, cuv in cop_sparse(hd, i):
                for p, q, cpq in cop_sparse(h, j):
                    row[(v * n + p) * big + u * n + q] += cuv * cpq
    counit = [counit_vec(hd)[i] * counit_vec(h)[j] for i in range(n) for j in range(n)]

    def closed_antipode(s_h, s_dual):
        hcols = [sparse_vec(column(s_h, j)) for j in range(n)]
        dcols = [sparse_vec(column(s_dual, i)) for i in range(n)]
        return Matrix.from_cols([
            dense_vec(mul_sparse(alg, _bowtie(n, eps, hcols[j]), _bowtie(n, dcols[i], unit_h)), big)
            for i in range(n)
            for j in range(n)
        ])

    return dense_hopf(
        alg,
        cop,
        counit,
        closed_antipode(s_matrix(h), s_matrix(hd, inverse=True)),
        closed_antipode(s_matrix(h, inverse=True), s_matrix(hd)),
        name=alg.name,
    )


# -- differential tests --------------------------------------------------------


def _rescaled_h4():
    return _rescaled_hopf(build_h4(), H4_SCALES)


def _rebased_h4():
    """H₄ on the basis b_i = Σ_k P[k][i]·e_k for a unipotent P. Its double has
    structure constants whose sums cancel to zero, which the build drops."""
    h = build_h4()
    n = h.dim
    p = Matrix([[1, 0, 0, -1], [-1, 1, 0, 1], [0, 0, 1, 0], [0, 0, -1, 1]])
    p_inv = p.inverse()
    cols, q = [column(p, i) for i in range(n)], dense(p_inv)
    mult, h_cop = dense_mult(h.alg), dense_cop(h)

    def product(x, y):
        return p_inv.apply([
            sum(x[a] * y[b] * mult[a][b][k] for a in range(n) for b in range(n)) for k in range(n)
        ])

    alg = dense_algebra(
        [f"b{i}" for i in range(n)], p_inv.apply(unit_vec(h.alg)),
        [[product(cols[i], cols[j]) for j in range(n)] for i in range(n)], name="H4 rebased",
    )
    cop = []
    for i in range(n):
        old = [sum(cols[i][k] * h_cop[k][x] for k in range(n)) for x in range(n * n)]
        cop.append([
            sum(old[u * n + v] * q[a][u] * q[b][v] for u in range(n) for v in range(n))
            for a in range(n)
            for b in range(n)
        ])
    counit = [sum(cols[i][k] * counit_vec(h)[k] for k in range(n)) for i in range(n)]
    return dense_hopf(alg, cop, counit, p_inv @ s_matrix(h) @ p, p_inv @ s_matrix(h, inverse=True) @ p, name=alg.name)


BUILDS = [build_h4, build_e2, _rescaled_h4, _rebased_h4]
BUILD_IDS = ["H4", "E2", "rescaled H4", "rebased H4"]


def test_rebased_h4_is_a_hopf_algebra():
    assert check_hopf_axioms(_rebased_h4()).ok


def _assert_same_hopf(got: HopfAlgebra, want: HopfAlgebra) -> None:
    assert got.alg.basis == want.alg.basis and got.alg.name == want.alg.name
    assert fraction_table(got.alg) == fraction_table(want.alg)
    assert fraction_cop(got) == fraction_cop(want)
    assert unit_vec(got.alg) == unit_vec(want.alg)
    assert counit_vec(got) == counit_vec(want)
    assert s_matrix(got) == s_matrix(want)
    assert s_matrix(got, inverse=True) == s_matrix(want, inverse=True)
    assert got.alg.int_sp == want.alg.int_sp
    assert got.alg.same_product(want.alg) and got.same_coproduct(want)


@pytest.mark.parametrize("build", BUILDS, ids=BUILD_IDS)
def test_dual_equals_the_dense_build(build):
    h = build()
    _assert_same_hopf(dual_hopf(h), _reference_dual(h))


@pytest.mark.parametrize("build", BUILDS, ids=BUILD_IDS)
def test_double_equals_the_dense_build(build):
    h = build()
    _assert_same_hopf(drinfeld_double(h)[0], _reference_double(h))


def test_opposite_transposes_the_sparse_table():
    h = _rescaled_h4()
    opp = opposite_algebra(h.alg)
    mult = dense_mult(h.alg)
    dense = [[mult[j][i] for j in range(h.dim)] for i in range(h.dim)]
    assert fraction_table(opp) == fraction_table(dense_algebra(h.alg.basis, unit_vec(h.alg), dense))
    assert dense_mult(opp) == dense
    assert opposite_algebra(opp).same_product(h.alg)


def test_same_product_and_coproduct_see_one_coefficient():
    h = _rescaled_h4()
    mult = dense_mult(h.alg)
    mult[1][2][3] += Q(1, 7)
    assert not dense_algebra(h.alg.basis, unit_vec(h.alg), mult).same_product(h.alg)
    cop = dense_cop(h)
    cop[2][5] -= Q(3)
    assert not dense_hopf(h.alg, cop, counit_vec(h), s_matrix(h), s_matrix(h, inverse=True)).same_coproduct(h)
    assert dual_hopf(dual_hopf(h)).same_coproduct(h)


# -- robustness ----------------------------------------------------------------

KZ2_TABLE = [[[(0, 1)], [(1, 1)]], [[(1, 1)], [(0, 1)]]]
# kZ₂ as a definition file
KZ2_JSON = {
    "dim": 2, "basis": ["1", "g"], "unit": ["1", "0"], "mult": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
}


def _sparse_algebra(basis, unit, table, name=""):
    """``StructureAlgebra.from_int`` of rational (k, c) terms and a dense
    rational unit, each scaled once."""
    den, table = scaled_cells(table)
    return StructureAlgebra.from_int(basis, _int_unit(unit), table, den, name=name)


def _int_unit(values):
    """(D, D·v) for a dense rational vector v, D its least common denominator."""
    v, den = scaled(sparse_vec(values))
    return den, v


def _kz2(table):
    return _sparse_algebra(["1", "g"], [1, 0], table)


def _with_term(term):
    return [[[(0, 1)], [(1, 1)]], [[(1, 1)], [term]]]


def test_sparse_algebra_equals_the_dense_one():
    alg = _kz2([[[(0, Q(1))], [(1, 1)]], [[(1, 1)], [(0, 1)]]])
    dense = dense_algebra(["1", "g"], [1, 0], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    assert fraction_table(alg) == fraction_table(dense) and alg.same_product(dense)
    # the terms of a product may come in any order
    alg = _kz2([[[], []], [[], [(1, Q(2)), (0, 3)]]])
    assert mul_basis(alg, 1, 1) == ((0, Q(3)), (1, Q(2)))


@pytest.mark.parametrize(
    "table",
    [
        KZ2_TABLE[:1],
        [KZ2_TABLE[0], KZ2_TABLE[1][:1]],
        _with_term((2, 1)),
        _with_term((-1, 1)),
        [[[(0, 1)], [(1, 1)]], [[(1, 1)], [(0, 1), (0, 2)]]],
        _with_term((0, 0)),
        _with_term((0, Q(0))),
        _with_term((0, 0.5)),
        _with_term((0, "1/2")),
        _with_term((0, None)),
        _with_term((1.0, 1)),
    ],
    ids=[
        "rows", "entries", "index=dim", "index<0", "duplicate", "zero int",
        "zero Fraction", "float", "string", "None", "float index",
    ],
)
def test_sparse_algebra_rejects_bad_tables(table):
    with pytest.raises(ValueError):
        _kz2(table)


def test_sparse_algebra_rejects_a_short_unit():
    # a dense unit is read from a definition file, whose loader checks its length
    obj = dict(KZ2_JSON, unit=["1"])
    with pytest.raises(SchemaError, match=r"^algebra.unit: expected 2 entries, got 1$"):
        load_algebra(obj)


BAD_VECTORS = {
    "dense list": [1.0, 0.1],
    "float": (1, {0: 1.0}),
    "bool": (1, {0: True}),
    "string": (1, {0: "1"}),
    "index=dim": (1, {0: 1, 2: 1}),
    "zero": (1, {0: 1, 1: 0}),
}


@pytest.mark.parametrize("vector", BAD_VECTORS.values(), ids=BAD_VECTORS)
def test_int_constructors_reject_a_bad_unit_or_counit(vector):
    # refused by int_content, as a bad table term is; "index=dim" is the
    # integer counterpart of the short dense unit above
    with pytest.raises(ValueError):
        StructureAlgebra.from_int(["1", "g"], vector, KZ2_TABLE, 1)
    with pytest.raises(ValueError):
        HopfAlgebra.from_int(_kz2(KZ2_TABLE), scaled_rows(KZ2_COP), vector, *[(1, [{0: 1}, {1: 1}])] * 2)


@pytest.mark.parametrize("bad", [0.1, "1/2"], ids=["float", "string"])
def test_dense_constructors_refuse_a_unit_or_counit_that_is_not_rational(bad):
    with pytest.raises(ValueError, match="not rational"):
        dense_algebra(["1", "g"], [1, bad], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    with pytest.raises(ValueError, match="not rational"):
        dense_hopf(_kz2(KZ2_TABLE), [[1, 0, 0, 0], [0, 0, 0, 1]], [1, bad], Matrix.identity(2))
    # the tables, S and R pass through ``vec`` or a ``Matrix``, which refuse
    # the entry as well: 0.1 was stored as 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match="not rational"):
        dense_algebra(["1", "g"], [1, 0], [[[1, 0], [0, 1]], [[0, 1], [bad, 0]]])
    with pytest.raises(ValueError, match="not rational"):
        dense_hopf(_kz2(KZ2_TABLE), [[1, 0, 0, 0], [0, 0, bad, 1]], [1, 1], Matrix.identity(2))
    for build in (lambda: Matrix([[1, 0], [0, bad]]), lambda: diag([1, bad]),
                  lambda: Matrix.from_cols([[1, 0], [bad, 1]])):
        with pytest.raises(ValueError, match="not rational"):
            dense_hopf(_kz2(KZ2_TABLE), [[1, 0, 0, 0], [0, 0, 0, 1]], [1, 1], build())
    with pytest.raises(ValueError, match="not rational"):
        qt_structure(build_h4(), [1] + [0] * 14 + [bad])


def test_dense_constructors_reject_bad_shapes():
    # the dense counterparts of the shape errors above, which a definition
    # file's loader refuses; a short tensor used to raise IndexError
    first = [["1", "0"], ["0", "1"]]
    cases = [
        ([first], r"algebra.mult: expected 2 rows"),
        ([first, [["0", "1"], ["1", "0", "0"]]], r"algebra.mult\[1\]\[1\]: expected 2 entries, got 3"),
        ([first, [["0", "1"], ["1", "x"]]], r"algebra.mult\[1\]\[1\]\[1\]: not a rational"),
    ]
    for mult, message in cases:
        with pytest.raises(SchemaError, match=f"^{message}"):
            load_algebra(dict(KZ2_JSON, mult=mult))
    hopf = dict(KZ2_JSON, counit=["1", "1"], antipode=[["1", "0"], ["0", "1"]])
    for coproduct, message in (
        ([[["1", "0"], ["0", "0"]]], r"hopf.coproduct: expected 2 entries"),
        ([[["1", "0"], ["0", "0"]], [["0", "0"], ["0"]]], r"hopf.coproduct\[1\]\[1\]: expected 2 entries, got 1"),
    ):
        with pytest.raises(SchemaError, match=f"^{message}$"):
            load_hopf(dict(hopf, coproduct=coproduct))


KZ2_COP = [[(0, 0, 1)], [(1, 1, 1)]]


def _kz2_hopf(cop, counit=(1, {0: 1, 1: 1})):
    return HopfAlgebra.from_int(_kz2(KZ2_TABLE), scaled_rows(cop), counit, *[(1, [{0: 1}, {1: 1}])] * 2)


def test_sparse_hopf_equals_the_dense_one():
    h = _kz2_hopf(KZ2_COP)
    dense = dense_hopf(h.alg, [[1, 0, 0, 0], [0, 0, 0, 1]], [1, 1], Matrix.identity(2))
    assert fraction_cop(h) == fraction_cop(dense) and h.same_coproduct(dense)
    assert s_matrix(h, inverse=True) == Matrix.identity(2)


@pytest.mark.parametrize(
    "cop",
    [
        KZ2_COP[:1],
        KZ2_COP + [[]],
        [[(0, 0, 1)], [(1, 2, 1)]],
        [[(0, 0, 1)], [(-1, 1, 1)]],
        [[(0, 0, 1)], [(1, 1, 1), (1, 1, Q(2))]],
        [[(0, 0, 1)], [(1, 1, 0)]],
        [[(0, 0, 1)], [(1, 1, 1.5)]],
        [[(0, 0, 1)], [(1, 1, "1")]],
    ],
    ids=["rows", "extra row", "index=dim", "index<0", "duplicate", "zero", "float", "string"],
)
def test_sparse_hopf_rejects_bad_coproducts(cop):
    with pytest.raises(ValueError):
        _kz2_hopf(cop)


def test_sparse_hopf_rejects_a_short_counit():
    with pytest.raises(ValueError):
        _kz2_hopf(KZ2_COP, counit=(1,))
    # a dense counit, read from a definition file, is checked for its length
    # before it is scaled
    hopf = dict(KZ2_JSON, coproduct=[[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
                antipode=[["1", "0"], ["0", "1"]])
    for counit in (["1"], ["1", "1", "1"]):
        with pytest.raises(SchemaError, match=f"^hopf.counit: expected 2 entries, got {len(counit)}$"):
            load_hopf(dict(hopf, counit=counit))


# -- integer tables ------------------------------------------------------------


def _seeded_int_table(rng, dim):
    """A dim × dim table of shuffled (k, c) terms, c a nonzero int."""
    table = []
    for _ in range(dim):
        row = []
        for _ in range(dim):
            keys = rng.sample(range(dim), rng.randint(0, dim))
            row.append([(k, rng.choice([-1, 1]) * rng.randint(1, 10**6)) for k in keys])
        table.append(row)
    return table


def _same_algebra(got: StructureAlgebra, want: StructureAlgebra) -> None:
    assert not hasattr(got, "unit")  # the store is the one form, with no dense unit
    assert got.int_sp == want.int_sp
    assert fraction_table(got) == fraction_table(want)
    assert got.same_product(want) and want.same_product(got)
    assert (got.basis, unit_vec(got), got.name) == (want.basis, unit_vec(want), want.name)


@pytest.mark.parametrize("seed", range(6))
def test_int_algebra_equals_the_fraction_one(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 6)
    basis = [f"e{i}" for i in range(dim)]
    unit = [Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim)]
    table = _seeded_int_table(rng, dim)
    den = rng.randint(1, 10**4)
    # a factor of den shared by every entry, which from_int divides out
    shared = rng.choice([2, 6, 35, 10**3])
    for terms, scale in ((table, den), ([[[(k, shared * c) for k, c in t] for t in r] for r in table], shared * den)):
        want = _sparse_algebra(basis, unit, [[[(k, Q(c, scale)) for k, c in t] for t in r] for r in terms], name="A")
        _same_algebra(StructureAlgebra.from_int(basis, _int_unit(unit), terms, scale, name="A"), want)


def test_int_algebra_reduces_its_scale():
    # e_1·e_1 = (6/4)·e_0 and e_0·e_1 = (2/4)·e_1: the scale is 2, not 4
    table = [[[(0, 4)], [(1, 2)]], [[(1, 4)], [(0, 6)]]]
    alg = StructureAlgebra.from_int(["1", "g"], (1, {0: 1}), table, 4)
    assert alg.int_sp == (2, [[((0, 2),), ((1, 1),)], [((1, 2),), ((0, 3),)]])
    assert mul_basis(alg, 1, 1) == ((0, Q(3, 2)),)
    # an empty table has scale 1, as the Fraction path gives
    empty = StructureAlgebra.from_int(["1", "g"], (1, {0: 1}), [[[], []], [[], []]], 9)
    assert empty.int_sp == _kz2([[[], []], [[], []]]).int_sp
    assert empty.int_sp[0] == 1


def test_int_algebra_matches_the_double():
    double = drinfeld_double(build_e2())[0].alg
    den, table = double.int_sp
    again = StructureAlgebra.from_int(double.basis, double.int_unit, table, den, name=double.name)
    _same_algebra(again, _sparse_algebra(double.basis, unit_vec(double), fraction_table(double), name=double.name))


KZ2_INT = [[[(0, 2)], [(1, 2)]], [[(1, 2)], [(0, 2)]]]


def _with_int_term(term):
    return [[[(0, 2)], [(1, 2)]], [[(1, 2)], [term]]]


@pytest.mark.parametrize(
    "table, den",
    [
        (KZ2_INT[:1], 2),
        ([KZ2_INT[0], KZ2_INT[1][:1]], 2),
        (_with_int_term((2, 2)), 2),
        (_with_int_term((-1, 2)), 2),
        (_with_int_term((1.0, 2)), 2),
        ([[[(0, 2)], [(1, 2)]], [[(1, 2)], [(0, 2), (0, 4)]]], 2),
        (_with_int_term((0, 0)), 2),
        (_with_int_term((0, Q(2))), 2),
        (_with_int_term((0, 2.0)), 2),
        (_with_int_term((0, True)), 2),
        (_with_int_term((0, "2")), 2),
        (KZ2_INT, 0),
        (KZ2_INT, -2),
        (KZ2_INT, Q(2)),
        (KZ2_INT, 2.0),
        ([[[(0, 2)], [(1, 2)]], [[(1, 2)], iter([(0, 2)])]], 2),
    ],
    ids=[
        "rows", "entries", "index=dim", "index<0", "float index", "duplicate", "zero", "Fraction",
        "float", "bool", "string", "scale 0", "scale<0", "Fraction scale", "float scale",
        "iterator",
    ],
)
def test_int_algebra_rejects_bad_tables(table, den):
    with pytest.raises(ValueError):
        StructureAlgebra.from_int(["1", "g"], (1, {0: 1}), table, den)
