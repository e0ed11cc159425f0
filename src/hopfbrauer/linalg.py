"""Exact rational linear algebra.

Everything in this package runs over ℚ, represented by ``fractions.Fraction``.
This module supplies the dense matrix type, determinants (fraction-free
Bareiss for small dense matrices, sparse pivoting elimination for the large
structural maps), exact linear solving with kernel bases, Kronecker products
and rational square testing.

Tensor index convention, fixed globally: the left factor is major, so the
basis vector e_i ⊗ e_j of V ⊗ W sits at flat index ``i * dim(W) + j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Q = Fraction

# Dense Bareiss is preferred up to this size; beyond it the structural
# matrices in this package are very sparse and sparse elimination wins.
_BAREISS_LIMIT = 64


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction."""
    return Fraction(str(text).strip())


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rational_is_square(x) -> Fraction | None:
    """Return the positive rational square root of x, or None.

    A reduced p/q is a square in ℚ exactly when p > 0 and both p and q are
    perfect integer squares.
    """
    x = Fraction(x)
    if x <= 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return Fraction(rn, rd)


def vec(values: Iterable) -> list[Fraction]:
    # entries that already are Fractions are kept, not rebuilt
    return [v if type(v) is Fraction else Fraction(v) for v in values]


def zero_vec(n: int) -> list[Fraction]:
    return [Fraction(0)] * n


def is_zero_vec(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


# A sparse vector: {index: nonzero coefficient}.
SparseVec = dict[int, Fraction]


def sparse_vec(v: Sequence[Fraction]) -> SparseVec:
    return {k: c for k, c in enumerate(v) if c}


def dense_vec(v: SparseVec, dim: int) -> list[Fraction]:
    out = zero_vec(dim)
    for k, c in v.items():
        out[k] = c
    return out


def sparse_sum(terms: Iterable[tuple[Fraction, SparseVec]]) -> SparseVec:
    """Σ c·v over (c, v) pairs of scalars and sparse vectors, zeros dropped."""
    out: SparseVec = {}
    for c, v in terms:
        for k, x in v.items():
            out[k] = out[k] + c * x if k in out else c * x
    return {k: x for k, x in out.items() if x}


class DimensionError(ValueError):
    """Raised on shape mismatches in matrix/vector operations."""


class Matrix:
    """Dense matrix over ℚ. Treated as immutable after construction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        self.data = [[v if type(v) is Fraction else Fraction(v) for v in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise DimensionError("ragged rows")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, entries: Sequence) -> "Matrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence]) -> "Matrix":
        n = len(cols[0])
        return cls([[col[i] for col in cols] for i in range(n)])

    # -- basics --------------------------------------------------------

    @property
    def entries(self) -> list[Fraction]:
        """Row-major flat copy of the entries."""
        return [v for row in self.data for v in row]

    def __getitem__(self, rc):
        r, c = rc
        return self.data[r][c]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(v) for v in row) for row in self.data)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)

    def transpose(self) -> "Matrix":
        return Matrix([[self.data[r][c] for r in range(self.rows)] for c in range(self.cols)])

    def col(self, j: int) -> list[Fraction]:
        return [self.data[i][j] for i in range(self.rows)]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix addition shape mismatch")
        return Matrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix subtraction shape mismatch")
        return Matrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.data])

    def __mul__(self, scalar) -> "Matrix":
        c = Fraction(scalar)
        return Matrix([[a * c for a in row] for row in self.data])

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.data):
            orow = out[i]
            for k, a in enumerate(row):
                if a:
                    brow = other.data[k]
                    for j, b in enumerate(brow):
                        if b:
                            orow[j] += a * b
        return Matrix(out)

    def apply(self, v: Sequence[Fraction]) -> list[Fraction]:
        """Matrix-vector product."""
        if self.cols != len(v):
            raise DimensionError("matrix-vector shape mismatch")
        out = zero_vec(self.rows)
        for j, x in enumerate(v):
            if x:
                for i in range(self.rows):
                    a = self.data[i][j]
                    if a:
                        out[i] += a * x
        return out

    # -- elimination-based operations -----------------------------------

    def det(self) -> Fraction:
        return mat_det(self)

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise DimensionError("inverse of non-square matrix")
        n = self.rows
        cols = []
        for j in range(n):
            e = zero_vec(n)
            e[j] = Fraction(1)
            sol = solve_linear(self, e)
            if sol.particular is None:
                raise ZeroDivisionError("matrix is singular")
            cols.append(sol.particular)
        return Matrix.from_cols(cols)

    def rank(self) -> int:
        rows = [sparse_vec(r) for r in self.data]
        return len(_sparse_rref(rows, self.cols))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with the left factor major in both indices."""
    return kron_sum([(Fraction(1), a, b)], a.rows * b.rows, a.cols * b.cols)


def kron_sum(terms: Iterable[tuple[Fraction, Matrix, Matrix]], rows: int, cols: int) -> Matrix:
    """Σ c·(a ⊗ b) over (c, a, b) triples, left factor major in both indices,
    accumulated entry by entry over the nonzeros of each factor."""
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for c, a, b in terms:
        b_entries = [(i2, j2, w) for i2, row in enumerate(b.data) for j2, w in enumerate(row) if w]
        for i1, row in enumerate(a.data):
            for j1, v in enumerate(row):
                if v:
                    cv = c * v
                    for i2, j2, w in b_entries:
                        out[i1 * b.rows + i2][j1 * b.cols + j2] += cv * w
    return Matrix(out)


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------


def mat_det(m: Matrix) -> Fraction:
    """Exact determinant of a square matrix."""
    if not m.is_square():
        raise DimensionError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    if n <= _BAREISS_LIMIT:
        return _det_bareiss(m)
    return _det_sparse(m)


def _det_bareiss(m: Matrix) -> Fraction:
    # Clear denominators row by row, run integer fraction-free elimination,
    # divide the scale factor back out at the end.
    n = m.rows
    a: list[list[int]] = []
    scale = Fraction(1)
    for row in m.data:
        lcm = 1
        for v in row:
            lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
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
                return Fraction(0)
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ai = a[i]
            ak = a[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * pk - aik * ak[j]) // prev
            ai[k] = 0
        prev = pk
    return Fraction(sign * a[n - 1][n - 1]) / scale


def _det_sparse(m: Matrix) -> Fraction:
    """Sparse elimination on dict rows; det = sign · product of pivots.

    Pivot rule: the remaining row with the fewest nonzeros (lowest index on
    ties), and in it the column with the fewest nonzeros among the remaining
    rows (lowest index on ties). The rule only steers fill-in and cost: every
    step is an exact row operation, and the sign of the row and column
    permutations is accounted for, so the value does not depend on which
    nonzero pivots are taken.
    """
    rows: dict[int, dict[int, Fraction]] = {}
    for i, r in enumerate(m.data):
        d = sparse_vec(r)
        if not d:
            return Fraction(0)
        rows[i] = d
    col_count: dict[int, int] = {}
    for d in rows.values():
        for c in d:
            col_count[c] = col_count.get(c, 0) + 1
    det = Fraction(1)
    row_order: list[int] = []
    col_order: list[int] = []
    while rows:
        pr = min(rows, key=lambda ri: (len(rows[ri]), ri))
        pc = min(rows[pr], key=lambda c: (col_count[c], c))
        pv = rows[pr][pc]
        det *= pv
        row_order.append(pr)
        col_order.append(pc)
        prow = rows.pop(pr)
        for c in prow:
            col_count[c] -= 1
        for ri in list(rows):
            d = rows[ri]
            f = d.get(pc)
            if f is None:
                continue
            factor = f / pv
            for c, v in prow.items():
                if c == pc:
                    continue
                old = d.get(c)
                if old is None:
                    d[c] = -factor * v
                    col_count[c] += 1
                    continue
                nv = old - factor * v
                if nv:
                    d[c] = nv
                else:
                    del d[c]
                    col_count[c] -= 1
            del d[pc]
            col_count[pc] -= 1
            if not d:
                return Fraction(0)
    return det * _perm_sign(row_order) * _perm_sign(col_order)


def _perm_sign(order: list[int]) -> int:
    pos = {v: i for i, v in enumerate(sorted(order))}
    perm = [pos[v] for v in order]
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Linear solving
# ---------------------------------------------------------------------------


@dataclass
class LinearSolution:
    """Solution of A·x = b: one particular solution (or None) plus ker(A)."""

    particular: list[Fraction] | None
    kernel: list[list[Fraction]]

    @property
    def consistent(self) -> bool:
        return self.particular is not None


def _sparse_rref(rows: list[dict[int, Fraction]], ncols: int) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of sparse rows; returns {pivot col: row}.

    Pivot rows are normalized to leading coefficient 1 and fully reduced
    against each other. Deterministic: pivots are chosen at the smallest
    column of each incoming row.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for raw in rows:
        r = dict(raw)
        for c in sorted(set(r) & set(pivots)):
            f = r.get(c)
            if not f:
                continue
            for cc, vv in pivots[c].items():
                nv = r.get(cc, Fraction(0)) - f * vv
                if nv:
                    r[cc] = nv
                elif cc in r:
                    del r[cc]
        if not r:
            continue
        p = min(r)
        inv = 1 / r[p]
        r = {c: v * inv for c, v in r.items()}
        for q, prow in pivots.items():
            f = prow.get(p)
            if f:
                for cc, vv in r.items():
                    nv = prow.get(cc, Fraction(0)) - f * vv
                    if nv:
                        prow[cc] = nv
                    elif cc in prow:
                        del prow[cc]
        pivots[p] = r
    return pivots


def solve_sparse(rows: list[dict[int, Fraction]], rhs: list[Fraction], nunknowns: int) -> LinearSolution:
    """Solve a sparse linear system given as dict rows plus right-hand sides."""
    if len(rows) != len(rhs):
        raise DimensionError("row/rhs length mismatch")
    aug = []
    for r, b in zip(rows, rhs):
        d = dict(r)
        if b:
            d[nunknowns] = Fraction(b)
        aug.append(d)
    pivots = _sparse_rref(aug, nunknowns + 1)
    if nunknowns in pivots:
        return LinearSolution(None, _kernel_from_rref({c: r for c, r in pivots.items() if c < nunknowns}, nunknowns))
    particular = zero_vec(nunknowns)
    for p, prow in pivots.items():
        particular[p] = prow.get(nunknowns, Fraction(0))
    kernel = _kernel_from_rref(pivots, nunknowns)
    return LinearSolution(particular, kernel)


def _kernel_from_rref(pivots: dict[int, dict[int, Fraction]], nunknowns: int) -> list[list[Fraction]]:
    free = [c for c in range(nunknowns) if c not in pivots]
    basis = []
    for f in free:
        v = zero_vec(nunknowns)
        v[f] = Fraction(1)
        for p, prow in pivots.items():
            coef = prow.get(f)
            if coef:
                v[p] = -coef
        basis.append(v)
    return basis


def solve_linear(a: Matrix, b: Sequence[Fraction]) -> LinearSolution:
    """Solve A·x = b exactly; also returns a basis of ker(A)."""
    if a.rows != len(b):
        raise DimensionError("rhs length does not match row count")
    rows = [sparse_vec(r) for r in a.data]
    return solve_sparse(rows, vec(b), a.cols)


def kernel_basis(a: Matrix) -> list[list[Fraction]]:
    rows = [sparse_vec(r) for r in a.data]
    return _kernel_from_rref(_sparse_rref(rows, a.cols), a.cols)


def in_span(basis: list[list[Fraction]], v: Sequence[Fraction]) -> bool:
    """Exact membership of v in the span of the given vectors."""
    if is_zero_vec(v):
        return True
    if not basis:
        return False
    a = Matrix.from_cols(basis)
    return solve_linear(a, vec(v)).consistent
