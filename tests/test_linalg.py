import inspect
import math
import random
import sys
from collections import Counter
from fractions import Fraction as Q

import pytest
from conftest import consistent, rank, transpose, zero_matrix
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hopfbrauer.linalg import (
    CONTENT_BITS,
    DimensionError,
    Matrix,
    format_rational,
    in_span,
    kernel_basis,
    kron,
    mat_det,
    parse_rational,
    rational_is_square,
    solve_columns,
    solve_linear,
    solve_sparse,
    sparse_vec,
)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def square_matrix(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n).map(Matrix)


def cofactor_det(m: Matrix) -> Q:
    n = m.rows
    if n == 1:
        return m.data[0][0]
    total = Q(0)
    for j in range(n):
        if m.data[0][j] == 0:
            continue
        minor = Matrix([[m.data[i][k] for k in range(n) if k != j] for i in range(1, n)])
        sign = Q(-1) ** j
        total += sign * m.data[0][j] * cofactor_det(minor)
    return total


def _det_bareiss(m: Matrix) -> Q:
    """Reference determinant: clear each row's denominators, run dense
    fraction-free Bareiss elimination on the integers, divide the scale back
    out. Test-only; ``mat_det`` is the package's one determinant."""
    n = m.rows
    if n == 0:
        return Q(1)
    a: list[list[int]] = []
    scale = Q(1)
    for row in m.data:
        lcm = math.lcm(*(v.denominator for v in row))
        scale *= lcm
        a.append([int(v * lcm) for v in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Q(0)
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ai = a[i]
            ak = a[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * pk - aik * ak[j]) // prev
            ai[k] = 0
        prev = pk
    return Q(sign * a[n - 1][n - 1]) / scale


def test_det_identity():
    assert mat_det(Matrix.identity(4)) == 1


def test_det_requires_square():
    with pytest.raises(DimensionError):
        mat_det(zero_matrix(2, 3))


def test_det_lemma_matrix_at_1_1_0():
    # the 4x4 matrix of F for C(a;t,s) at a=1, t=1, s=0
    a, t, s = Q(1), Q(1), Q(0)
    m = Matrix(
        [
            [1, 0, 0, a],
            [0, 1, 1, 0],
            [0, s * t - a, a, 0],
            [1, 0, 0, s * t - a],
        ]
    )
    assert mat_det(m) == -4


def test_det_against_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(6):
        m = Matrix(
            [[Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)] for _ in range(5)]
        )
        assert mat_det(m) == cofactor_det(m)


def test_det_sparse_path_matches_bareiss():
    rng = random.Random(5)
    for _ in range(3):
        rows = []
        for i in range(12):
            row = [Q(0)] * 12
            for _ in range(3):
                row[rng.randrange(12)] = Q(rng.randint(-5, 5))
            rows.append(row)
        m = Matrix(rows)
        assert _det_bareiss(m) == mat_det(m)


SPARSE_DET_KINDS = ("full", "full", "zero row", "zero column", "dependent row", "dependent rows")


def _sparse_det_cases(seed: int, dense_rows: bool) -> list[tuple[str, Matrix]]:
    """Seeded sparse rational matrices of size 65–96.

    Each row has a nonzero diagonal entry and at most one more; with
    ``dense_rows`` every 16th row gets up to ten more, which causes fill-in. The
    singular kinds have a zero row, a zero column, or rows replaced by
    combinations of two others, which elimination only exposes midway.
    """
    rng = random.Random(seed)

    def rat():
        return Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    cases = []
    for kind in SPARSE_DET_KINDS:
        n = rng.randint(65, 96)
        rows = []
        for i in range(n):
            row = [Q(0)] * n
            for _ in range(10 if dense_rows and i % 16 == 0 else 1):
                row[rng.randrange(n)] += rat()
            row[i] = rat()
            rows.append(row)
        if kind == "zero row":
            rows[rng.randrange(n)] = [Q(0)] * n
        elif kind == "zero column":
            c = rng.randrange(n)
            for row in rows:
                row[c] = Q(0)
        elif kind.startswith("dependent"):
            for _ in range(1 if kind == "dependent row" else 3):
                i, j, k = rng.sample(range(n), 3)
                a, b = rat(), rat()
                rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        cases.append((kind, Matrix(rows)))
    return cases


@pytest.mark.parametrize("dense_rows", [False, True])
def test_sparse_det_matches_bareiss(dense_rows):
    for seed in (65, 96):
        for kind, m in _sparse_det_cases(seed, dense_rows):
            assert 65 <= m.rows <= 96
            det = mat_det(m)
            assert det == _det_bareiss(m), kind
            assert (det == 0) == (kind != "full"), kind


INT_ROW_KINDS = ("full", "full", "zero row", "dependent row", "dependent rows")


def _int_row_cases(seed: int) -> list[tuple[str, list[tuple[int, dict[int, int]]], int]]:
    """Seeded (kind, integer rows, size) with n = 10–14, four to six nonzeros
    a row up to 2⁴⁰ over denominators up to 2⁶⁰, and each row times a common
    factor up to 2²⁰, so the rows are not reduced. Independent rows start
    over denominators below 2⁸¹, far under 2^CONTENT_BITS, but each update
    multiplies a denominator by up to a pivot's size, so they pass the bound
    midway. A dependent row is p·row i + q·row j, written over den_i·den_j."""
    rng = random.Random(seed)
    cases = []
    for kind in INT_ROW_KINDS:
        n = rng.randint(10, 14)
        rows = []
        for i in range(n):
            k = rng.randint(1, 2**20)
            v = {c: k * rng.choice((-1, 1)) * rng.randint(1, 2**40)
                 for c in rng.sample(range(n), rng.randint(4, 6))}
            rows.append((k * rng.randint(1, 2**60), v))
        if kind == "zero row":
            rows[rng.randrange(n)] = (rng.randint(1, 2**60), {})
        elif kind.startswith("dependent"):
            for _ in range(1 if kind == "dependent row" else 3):
                i, j, k = rng.sample(range(n), 3)
                (di, vi), (dj, vj) = rows[i], rows[j]
                p, q = rng.randint(1, 2**30), -rng.randint(1, 2**30)
                v = {c: p * vi.get(c, 0) * dj + q * vj.get(c, 0) * di for c in vi.keys() | vj.keys()}
                rows[k] = (di * dj, {c: x for c, x in v.items() if x})
        cases.append((kind, rows, n))
    return cases


def _mat_det_line_hits(m: Matrix, *markers: str) -> tuple[Q, list[int]]:
    """(mat_det(m), for each marker the line events of the first line of
    mat_det that contains it), read from mat_det's own frame."""
    lines, first = inspect.getsourcelines(mat_det)
    numbers = [first + next(i for i, line in enumerate(lines) if marker in line) for marker in markers]
    hits = Counter()

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_lineno] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is mat_det.__code__ else None)
    try:
        det = mat_det(m)
    finally:
        sys.settrace(previous)
    return det, [hits[k] for k in numbers]


def _mat_det_content_lines(m: Matrix) -> tuple[Q, int, int]:
    """(mat_det(m), the updates that reached the content bound's test, the
    updates that went on to clear content)."""
    det, (tested, cleared) = _mat_det_line_hits(m, "> CONTENT_BITS", "content = math.gcd(dens[ri]")
    return det, tested, cleared


def test_int_row_matrix_equals_the_dense_matrix():
    for _, rows, n in _int_row_cases(3):
        dense = Matrix([[Q(v.get(c, 0), den) for c in range(n)] for den, v in rows])
        m = Matrix.from_int_rows(rows, n)
        assert (m.rows, m.cols) == (dense.rows, dense.cols) == (n, n)
        assert "data" not in vars(m)
        assert m.data == dense.data
        assert m == dense and dense == m
        assert hash(m) == hash(dense)
        assert transpose(Matrix.from_int_rows(rows, n)) == transpose(dense)
        # the integer-row view of the dense matrix is the same rows, reduced
        assert [{c: Q(x, den) for c, x in v.items()} for den, v in dense.int_rows] == [
            {c: Q(x, den) for c, x in v.items() if x} for den, v in rows
        ]


def test_int_row_det_matches_bareiss_across_the_content_bound():
    assert CONTENT_BITS == 128
    below = cleared = 0
    for seed in (7, 8):
        for kind, rows, n in _int_row_cases(seed):
            m = Matrix.from_int_rows(rows, n)
            det, tested, clears = _mat_det_content_lines(m)
            assert "data" not in vars(m)  # elimination reads the integer rows only
            assert det == _det_bareiss(m), kind
            assert (det == 0) == (kind != "full"), kind
            below += tested - clears
            cleared += clears
    # both sides of the bound ran: updates that left content in place and
    # updates that cleared it
    assert below > 0 and cleared > 0


def _common_factor_cases(seed: int) -> list[tuple[str, list[tuple[int, dict[int, int]]], int]]:
    """Seeded (kind, integer rows, size) with n = 8–12, each row k·v over a
    denominator up to 2²⁰ coprime to k: v has three to five entries up to
    2¹⁰ and k = ±(2 to 2²⁰), so the content k survives the first reduction
    and the pivot row carries it into the elimination. A dependent row is
    k·(p·row i + q·row j); a zero row has no entries."""
    rng = random.Random(seed)
    cases = []
    for kind in INT_ROW_KINDS:
        n = rng.randint(8, 12)
        rows = []
        for _ in range(n):
            den = rng.randint(1, 2**20)
            k = rng.randint(2, 2**20)
            k = rng.choice((-1, 1)) * k // math.gcd(k, den)
            v = {c: k * rng.choice((-1, 1)) * rng.randint(1, 2**10) for c in rng.sample(range(n), rng.randint(3, 5))}
            rows.append((den, v))
        if kind == "zero row":
            rows[rng.randrange(n)] = (rng.randint(1, 2**20), {})
        elif kind.startswith("dependent"):
            for _ in range(1 if kind == "dependent row" else 3):
                i, j, r = rng.sample(range(n), 3)
                (di, vi), (dj, vj) = rows[i], rows[j]
                p, q, k = rng.randint(1, 2**10), -rng.randint(1, 2**10), rng.choice((-1, 1)) * rng.randint(2, 2**20)
                v = {c: k * (p * vi.get(c, 0) * dj + q * vj.get(c, 0) * di) for c in vi.keys() | vj.keys()}
                rows[r] = (di * dj, {c: x for c, x in v.items() if x})
        cases.append((kind, rows, n))
    return cases


def test_pivot_row_content_is_compensated_exactly():
    """mat_det divides each pivot row by the gcd g of its integers and
    multiplies the determinant by g; on rows with large common factors of
    both signs, and on dependent and zero rows, the result is Bareiss's."""
    divided = 0
    for seed in (1, 2, 3):
        for kind, rows, n in _common_factor_cases(seed):
            m = Matrix.from_int_rows(rows, n)
            det, (division,) = _mat_det_line_hits(m, "prow[c] //= g")
            assert det == _det_bareiss(m), kind
            assert (det == 0) == (kind != "full"), kind
            divided += division
    # the compensation ran: some pivot rows had content to divide out
    assert divided > 0


def test_sparse_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for kind, m in _sparse_det_cases(65, dense_rows=False):
        want = sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m.data]
        ).det()
        assert mat_det(m) == Q(int(want.p), int(want.q)), kind


try:
    import sympy
except ImportError:  # the oracle below is skipped; the package needs no sympy
    sympy = None

ORACLE_KINDS = ("random", "block diagonal", "zero row", "zero column", "dependent rows")


@st.composite
def oracle_matrices(draw):
    """(kind, matrix) with n ≤ 24, entries p/q with |p| ≤ 9 and q up to 9 or
    10⁶. "block diagonal" has its rows and columns randomly permuted; the
    singular kinds get a zero row, a zero column, or one to three rows
    replaced by combinations of two others."""
    kind = draw(st.sampled_from(ORACLE_KINDS))
    n = draw(st.integers(min_value=3 if kind == "dependent rows" else 1, max_value=24))
    max_den = draw(st.sampled_from((9, 10**6)))
    density = draw(st.sampled_from((0.15, 0.5, 1.0)))
    rng = draw(st.randoms(use_true_random=False))

    def rat():
        return Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, max_den))

    def dense(rows, cols):
        return [[rat() if rng.random() < density else Q(0) for _ in range(cols)] for _ in range(rows)]

    if kind == "block diagonal":
        rows = [[Q(0)] * n for _ in range(n)]
        start = 0
        while start < n:
            size = rng.randint(1, n - start)
            for i, row in enumerate(dense(size, size)):
                rows[start + i][start:start + size] = row
            start += size
        rperm, cperm = rng.sample(range(n), n), rng.sample(range(n), n)
        rows = [[rows[r][c] for c in cperm] for r in rperm]
    else:
        rows = dense(n, n)
    if kind == "zero row":
        rows[rng.randrange(n)] = [Q(0)] * n
    elif kind == "zero column":
        c = rng.randrange(n)
        for row in rows:
            row[c] = Q(0)
    elif kind == "dependent rows":
        for _ in range(rng.randint(1, 3)):
            i, j, k = rng.sample(range(n), 3)
            a, b = rat(), rat()
            rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return kind, Matrix(rows)


# No shrink phase: each shrink step runs sympy's determinant on matrices up to
# 24×24 with denominators up to 10⁶, so a failing example is reported as drawn.
@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=60, phases=[p for p in Phase if p is not Phase.shrink])
@given(case=oracle_matrices())
def test_det_matches_sympy_oracle(case):
    kind, m = case
    exact = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m.data])
    want = exact.det(method="domain-ge")  # exact elimination over QQ
    got = mat_det(m)
    assert got == Q(int(want.p), int(want.q))
    if kind in ("zero row", "zero column", "dependent rows"):
        assert got == 0


def _qq(m: Matrix):
    """m as a sympy DomainMatrix over QQ, whose rank, null space and inverse
    are exact."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix(
        [[QQ(v.numerator, v.denominator) for v in row] for row in m.data], (m.rows, m.cols), QQ
    )


def _from_qq(rows) -> list[list[Q]]:
    return [[Q(int(v.numerator), int(v.denominator)) for v in row] for row in rows]


def _solver_case(seed: int) -> Matrix:
    """A seeded sparse matrix, up to 12×12 and often not square, with entries
    p/q, |p| ≤ 9 and q up to 10⁶; every other seed makes it singular by
    replacing rows with combinations of two others."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 12), rng.randint(1, 12)
    if seed % 3 == 0:
        cols = rows

    def rat():
        return Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, rng.choice((9, 10**6))))

    density = rng.choice((0.15, 0.4, 1.0))
    data = [[rat() if rng.random() < density else Q(0) for _ in range(cols)] for _ in range(rows)]
    if seed % 2 and rows >= 3:
        for _ in range(rng.randint(1, 3)):
            i, j, k = rng.sample(range(rows), 3)
            a, b = rat(), rat()
            data[k] = [a * x + b * y for x, y in zip(data[i], data[j])]
    return Matrix(data)


SOLVER_SEEDS = range(40)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@pytest.mark.parametrize("seed", SOLVER_SEEDS)
def test_rank_and_kernel_match_sympy_oracle(seed):
    m = _solver_case(seed)
    exact = _qq(m)
    assert rank(m) == exact.rank()
    kernel = kernel_basis(m)
    assert len(kernel) == m.cols - exact.rank()
    zero = [Q(0)] * m.rows
    assert all(m.apply(v) == zero for v in kernel)
    if kernel:
        # the two null-space bases span the same space: stacking them adds no rank
        theirs = _from_qq(exact.nullspace().to_list())
        assert _qq(Matrix(kernel + theirs)).rank() == len(kernel)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@pytest.mark.parametrize("seed", SOLVER_SEEDS)
def test_solve_sparse_matches_sympy_oracle(seed):
    m = _solver_case(seed)
    rng = random.Random(-seed)
    if seed % 4 < 2:  # a right-hand side in the column space
        x0 = [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m.cols)]
        rhs = m.apply(x0)
    else:
        rhs = [Q(rng.randint(-9, 9), rng.randint(1, 10**6)) for _ in range(m.rows)]
    want = _qq(m).rank()
    solvable = _qq(Matrix([row + [b] for row, b in zip(m.data, rhs)])).rank() == want
    sol = solve_sparse([sparse_vec(row) for row in m.data], rhs, m.cols)
    assert consistent(sol) == solvable
    if solvable:
        assert m.apply(sol.particular) == rhs
    assert len(sol.kernel) == m.cols - want
    zero = [Q(0)] * m.rows
    assert all(m.apply(v) == zero for v in sol.kernel)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@pytest.mark.parametrize("seed", [s for s in SOLVER_SEEDS if s % 3 == 0])
def test_inverse_matches_sympy_oracle(seed):
    m = _solver_case(seed)
    exact = _qq(m)
    if exact.det() == 0:
        with pytest.raises(ZeroDivisionError):
            m.inverse()
        assert mat_det(m) == 0
    else:
        assert m.inverse().data == _from_qq(exact.inv().to_list())


@settings(max_examples=40, deadline=None)
@given(a=square_matrix(3), b=square_matrix(3))
def test_det_multiplicative(a, b):
    assert mat_det(a @ b) == mat_det(a) * mat_det(b)


def test_solve_zero_system():
    sol = solve_linear(zero_matrix(2, 2), [Q(0), Q(0)])
    assert sol.particular == [0, 0]
    assert len(sol.kernel) == 2


def test_solve_forced():
    sol = solve_linear(Matrix([[1, 1], [0, 0]]), [Q(2), Q(0)])
    assert sol.particular == [2, 0]
    assert sol.kernel == [[-1, 1]] or sol.kernel == [[1, -1]]


def test_solve_inconsistent():
    sol = solve_linear(Matrix([[1, 1], [1, 1]]), [Q(0), Q(1)])
    assert sol.particular is None


def test_solve_columns_keeps_a_row_that_only_the_target_reaches():
    # x·e_0 = e_0 + e_2: no column has an entry at 2, so row 2 reads 0 = 1
    assert solve_columns([([{0: 1}], {0: 1, 2: 1})], 1).particular is None
    # 2x = 3 and x + y = 3 at row 7; rows no column and no target reaches are 0 = 0
    sol = solve_columns([([{0: 2}, {}], {0: 3}), ([{7: 1}, {7: 1}], {7: 3})], 2)
    assert sol.particular == [Q(3, 2), Q(3, 2)] and sol.kernel == []
    sol = solve_columns([([{0: 2}, {}], {0: 3}), ([{}, {}], {})], 2)
    assert sol.particular == [Q(3, 2), Q(0)] and sol.kernel == [[Q(0), Q(1)]]


def test_solvers_reject_mismatched_shapes():
    with pytest.raises(DimensionError):
        solve_sparse([{0: Q(1)}], [Q(1), Q(2)], 1)
    with pytest.raises(DimensionError):
        solve_sparse([{0: Q(1)}, {1: Q(1)}], [Q(1)], 2)
    with pytest.raises(DimensionError):
        solve_linear(Matrix([[1, 2]]), [Q(1), Q(2)])
    with pytest.raises(DimensionError):
        solve_linear(Matrix([[1, 2], [3, 4]]), [Q(1)])


@pytest.mark.parametrize("v", [[1], [1, 1, 1], [0, 1, 0]])
def test_in_span_rejects_a_vector_of_another_length(v):
    with pytest.raises(DimensionError):
        in_span([[Q(1), Q(0)], [Q(0), Q(1)]], v)


def test_in_span_rejects_ragged_basis_vectors():
    # a shorter vector after the first raised IndexError before the echelon
    with pytest.raises((DimensionError, IndexError)):
        in_span([[1, 0], [1]], [1, 1])
    with pytest.raises((DimensionError, IndexError)):
        in_span([[1, 0, 0], [0, 1]], [1, 0, 0])


def test_in_span_rejects_a_basis_vector_longer_than_v():
    # read as its first len(v) entries, this used to answer True
    with pytest.raises(DimensionError):
        in_span([[1], [1, 0]], [1])
    with pytest.raises(DimensionError):
        in_span([[1, 0], [1]], [1, 1])


def test_solve_random_consistent_substitute_back():
    rng = random.Random(3)
    for _ in range(10):
        a = Matrix([[Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)] for _ in range(6)])
        x = [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        b = a.apply(x)
        sol = solve_linear(a, b)
        assert sol.particular is not None
        assert a.apply(sol.particular) == b
        for v in sol.kernel:
            assert a.apply(v) == [Q(0)] * 6


def test_kron_identities():
    i2 = Matrix.identity(2)
    assert kron(i2, i2) == Matrix.identity(4)
    u = Matrix.diag([1, -1])
    assert kron(u, i2) == Matrix.diag([1, 1, -1, -1])


@settings(max_examples=40, deadline=None)
@given(a=square_matrix(2), b=square_matrix(2), c=square_matrix(2), d=square_matrix(2))
def test_kron_mixed_product(a, b, c, d):
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_rational_is_square():
    assert rational_is_square(Q(4, 9)) == Q(2, 3)
    assert rational_is_square(Q(2)) is None
    assert rational_is_square(Q(-1)) is None


@settings(max_examples=60, deadline=None)
@given(x=rationals)
def test_square_roundtrip(x):
    if x != 0:
        assert rational_is_square(x * x) == abs(x)


def test_rational_strings():
    assert parse_rational("3/4") == Q(3, 4)
    assert parse_rational("-7") == Q(-7)
    assert format_rational(Q(3, 4)) == "3/4"
    assert format_rational(Q(-7)) == "-7"
    assert format_rational(Q(8, 4)) == "2"
