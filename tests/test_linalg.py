import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfbrauer.linalg import (
    DimensionError,
    Matrix,
    _det_bareiss,
    format_rational,
    kron,
    mat_det,
    parse_rational,
    rational_is_square,
    solve_linear,
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


def test_det_identity():
    assert mat_det(Matrix.identity(4)) == 1


def test_det_requires_square():
    with pytest.raises(DimensionError):
        mat_det(Matrix.zero(2, 3))


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
        from hopfbrauer.linalg import _det_bareiss, _det_sparse

        assert _det_bareiss(m) == _det_sparse(m)


SPARSE_DET_KINDS = ("full", "full", "zero row", "zero column", "dependent row", "dependent rows")


def _sparse_det_cases(seed: int, dense_rows: bool) -> list[tuple[str, Matrix]]:
    """Seeded sparse rational matrices of size 65–96, above the Bareiss limit.

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


def test_sparse_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for kind, m in _sparse_det_cases(65, dense_rows=False):
        want = sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m.data]
        ).det()
        assert mat_det(m) == Q(int(want.p), int(want.q)), kind


@settings(max_examples=40, deadline=None)
@given(a=square_matrix(3), b=square_matrix(3))
def test_det_multiplicative(a, b):
    assert mat_det(a @ b) == mat_det(a) * mat_det(b)


def test_solve_zero_system():
    sol = solve_linear(Matrix.zero(2, 2), [Q(0), Q(0)])
    assert sol.particular == [0, 0]
    assert len(sol.kernel) == 2


def test_solve_forced():
    sol = solve_linear(Matrix([[1, 1], [0, 0]]), [Q(2), Q(0)])
    assert sol.particular == [2, 0]
    assert sol.kernel == [[-1, 1]] or sol.kernel == [[1, -1]]


def test_solve_inconsistent():
    sol = solve_linear(Matrix([[1, 1], [1, 1]]), [Q(0), Q(1)])
    assert sol.particular is None


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
