"""Exact rational linear algebra.

Everything in this package runs over ℚ, represented by ``fractions.Fraction``.
This module supplies the matrix type (built dense or from integer rows, each
form a lazy view of the other), determinants (sparse pivoting elimination on
integer rows, each over one row denominator, for every size), one integer
echelon for every solve, Kronecker products and rational square testing.

Tensor index convention, fixed globally: the left factor is major, so the
basis vector e_i ⊗ e_j of V ⊗ W sits at flat index ``i * dim(W) + j``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence


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
    x = _rational(x)
    if x <= 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return Fraction(rn, rd)


def _rational(v) -> Fraction:
    """v as a Fraction; ``ValueError`` unless it is an int or a Fraction (a
    float is a binary fraction, not the rational it was written as)."""
    if not isinstance(v, (int, Fraction)):
        raise ValueError(f"entry {v!r} is not rational")
    return Fraction(v)


def vec(values: Iterable) -> list[Fraction]:
    # entries that already are Fractions are kept, not rebuilt
    return [v if type(v) is Fraction else _rational(v) for v in values]


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


# A sparse vector of integers, standing for itself over a known denominator.
IntVec = dict[int, int]


def common_denominator(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators of the values (1 for none)."""
    return math.lcm(*{v.denominator for v in values})


def scale_sparse(v: SparseVec, den: int) -> IntVec:
    """den·v as integers; den must be a multiple of every denominator in v."""
    return {k: c.numerator * (den // c.denominator) for k, c in v.items()}


def scaled(v: dict) -> tuple[dict, int]:
    """(D·v as integers, D) for the least common denominator D of the values
    of v, whatever its keys."""
    den = common_denominator(v.values())
    return scale_sparse(v, den), den


def scaled_vecs(vs: Iterable[SparseVec]) -> tuple[int, list[IntVec]]:
    """(D, the vectors times D) for D the least common denominator of them all."""
    vs = list(vs)
    den = common_denominator(c for v in vs for c in v.values())
    return den, [scale_sparse(v, den) for v in vs]


def scaled_rows(rows) -> tuple[int, list[tuple]]:
    """(D, rows) for rows of sparse terms whose last entry is the coefficient:
    every coefficient times D, the least common denominator of them all
    (``ValueError`` unless each is an int or a Fraction)."""
    rows = [tuple(row) for row in rows]
    if not all(isinstance(t[-1], (int, Fraction)) for row in rows for t in row):
        raise ValueError("a coefficient is not rational")
    den = common_denominator(t[-1] for row in rows for t in row)
    return den, [tuple((*t[:-1], t[-1].numerator * (den // t[-1].denominator)) for t in row) for row in rows]


def over(v: dict, den: int) -> dict:
    """v/den, each integer value written once as a Fraction."""
    return {k: Fraction(c, den) for k, c in v.items()}


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
    """Matrix over ℚ. Treated as immutable after construction.

    It is built either dense, from rows of rationals, or from integer rows
    (``from_int_rows``). Each form is a view of the other, built the first
    time it is read: ``data`` holds the dense Fraction rows and ``int_rows``
    the integer rows that ``mat_det`` eliminates. A matrix built from integer
    rows and only handed to ``mat_det`` never allocates its rows × cols list.
    """

    def __init__(self, data: Sequence[Sequence]):
        self.data = [vec(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise DimensionError("ragged rows")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int_rows(cls, rows: Sequence[tuple[int, IntVec]], cols: int) -> "Matrix":
        """The matrix whose row i is v/den for rows[i] = (den, v): den a
        positive integer and v a sparse vector {column: nonzero integer}. The
        rows are kept as given, not copied and not reduced."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.int_rows = len(rows), cols, rows
        return m

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

    # -- views -----------------------------------------------------------

    @cached_property
    def data(self) -> list[list[Fraction]]:
        """Dense rows of Fractions, one shared zero for the absent entries."""
        zero = Fraction(0)
        out = [[zero] * self.cols for _ in range(self.rows)]
        for row, (den, v) in zip(out, self.int_rows):
            for c, x in v.items():
                row[c] = Fraction(x, den)
        return out

    @cached_property
    def int_rows(self) -> list[tuple[int, IntVec]]:
        """(den, {column: integer}) for each row: den is the least common
        denominator of the row's nonzero entries and the integers are those
        entries times den, so they share no factor with den."""
        return [(den, v) for v, den in map(scaled, map(sparse_vec, self.data))]

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
        c = _rational(scalar)
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

    def inverse(self) -> "Matrix":
        """A⁻¹, read off the ``Echelon`` [I | A⁻¹] of [A | I]; ``ZeroDivisionError`` if singular."""
        if not self.is_square():
            raise DimensionError("inverse of non-square matrix")
        n = self.rows
        pivots = Echelon({**v, n + i: den} for i, (den, v) in enumerate(self.int_rows)).rows
        if any(p not in pivots for p in range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix([[Fraction(pivots[p].get(n + c, 0), pivots[p][p]) for c in range(n)] for p in range(n)])


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with the left factor major in both indices."""
    return Matrix([[x * y for x in ra for y in rb] for ra in a.data for rb in b.data])


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------


# mat_det divides a row by its content (the gcd of its denominator and its
# integers) only once the denominator has grown past this many bits. Clearing
# it after every update costs more gcds than the smaller integers save; never
# clearing it lets the entries grow without bound on larger matrices.
CONTENT_BITS = 128


def mat_det(m: Matrix) -> Fraction:
    """Exact determinant of a square matrix, by sparse elimination on the
    integer rows of ``m.int_rows``, each divided by its content, so the loop
    does no Fraction arithmetic and reads no dense row.

    Pivot: the remaining row with the fewest nonzeros, and in it the column
    with the fewest nonzeros among the remaining rows, the lowest index
    winning each tie (an integer row has its rational row's nonzeros). The
    pivot row is divided by the gcd g of its integers. With pivot value pv
    and entry f in the pivot column, a row becomes (pv/h)·R − (f/h)·P for
    h = ±gcd(pv, f) signed like pv, and its denominator is multiplied by
    pv/h; once that denominator has more than ``CONTENT_BITS`` bits, the row
    is divided by its content again. Each step is an exact row operation, so

        det = sign(row order)·sign(column order)·∏ pv·∏ g / ∏ den(pivot row).
    """
    if not m.is_square():
        raise DimensionError("determinant of non-square matrix")
    rows: dict[int, dict[int, int]] = {}
    dens: dict[int, int] = {}
    for i, (row_den, r) in enumerate(m.int_rows):
        content = math.gcd(row_den, *r.values())
        d = {c: v // content for c, v in r.items() if v}
        if not d:
            return Fraction(0)
        rows[i] = d
        dens[i] = row_den // content
    # row lengths in row-index order, so the first minimum is the lowest index
    lens = {i: len(d) for i, d in rows.items()}
    col_count: dict[int, int] = {}
    for d in rows.values():
        for c in d:
            col_count[c] = col_count.get(c, 0) + 1
    num = den = 1
    row_order: list[int] = []
    col_order: list[int] = []
    while rows:
        pr = min(lens, key=lens.get)
        del lens[pr]
        pc = min(rows[pr], key=lambda c: (col_count[c], c))
        prow = rows.pop(pr)
        g = math.gcd(*prow.values())
        if g != 1:
            for c in prow:
                prow[c] //= g
        pv = prow.pop(pc)
        num *= g * pv
        den *= dens.pop(pr)
        row_order.append(pr)
        col_order.append(pc)
        col_count[pc] -= 1
        for c in prow:
            col_count[c] -= 1
        pitems = list(prow.items())
        for ri, d in rows.items():
            if pc not in d:
                continue
            f = d.pop(pc)
            col_count[pc] -= 1
            h = math.gcd(pv, f)
            if pv < 0:
                h = -h
            a, b = pv // h, f // h
            if a != 1:
                for c in d:
                    d[c] *= a
                dens[ri] *= a
            for c, v in pitems:
                old = d.get(c)
                if old is None:
                    d[c] = -b * v
                    col_count[c] += 1
                    continue
                nv = old - b * v
                if nv:
                    d[c] = nv
                else:
                    del d[c]
                    col_count[c] -= 1
            if not d:
                return Fraction(0)
            lens[ri] = len(d)
            if dens[ri].bit_length() > CONTENT_BITS:
                content = math.gcd(dens[ri], *d.values())
                if content != 1:
                    for c in d:
                        d[c] //= content
                    dens[ri] //= content
    return Fraction(num * _perm_sign(row_order) * _perm_sign(col_order), den)


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


class LinearSolution:
    """Solution of A·x = b: one particular solution (or None) plus ker(A)."""

    def __init__(self, particular: list[Fraction] | None, kernel: list[list[Fraction]]):
        self.particular, self.kernel = particular, kernel

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.particular, self.kernel) == (other.particular, other.kernel)


class Echelon:
    """The reduced row echelon form of a growing span: ``rows[p]`` is an integer
    row of content 1, positive at its least column p and zero at every other
    pivot. The RREF is unique, so rows[p] / rows[p][p] is its row at p."""

    def __init__(self, rows: Iterable[IntVec] = ()):
        self.rows: dict[int, IntVec] = {}
        for v in rows:
            self.insert(v)

    def reduce(self, v: IntVec, rows=None) -> IntVec:
        """L·v minus the multiple of each row (of ``rows`` if given) that clears
        v at its pivot, L > 0 the lcm of those pivots: {} iff v is in the span."""
        rows = self.rows if rows is None else rows
        hits = [c for c in v if c in rows]
        if not hits:
            return {c: x for c, x in v.items() if x}
        lift = math.lcm(*[rows[c][c] for c in hits])
        out = dict(v) if lift == 1 else {c: lift * x for c, x in v.items()}
        for p in hits:
            f = lift * v[p] // rows[p][p]
            for c, y in rows[p].items():
                out[c] = out.get(c, 0) - f * y
        return {c: x for c, x in out.items() if x}

    def insert(self, v: IntVec) -> IntVec | None:
        """Add v to the span and return its row (None if v was in the span),
        reducing every other row by it."""
        if not (w := v and self.reduce(v)):  # a zero product is common
            return None
        w = _primitive(w)
        p = min(w)
        for q, row in self.rows.items():
            if p in row:
                self.rows[q] = _primitive(self.reduce(row, {p: w}))
        self.rows[p] = w
        return w


def _primitive(v: IntVec) -> IntVec:
    """v over its content, signed to be positive at its least column."""
    g = math.gcd(*v.values()) * (1 if v[min(v)] > 0 else -1)
    return {c: x // g for c, x in v.items()}


def _solution(rows: Iterable[IntVec], n: int) -> LinearSolution:
    """The solution and kernel basis read off the ``Echelon`` of augmented
    integer rows, b in column n."""
    pivots = Echelon(rows).rows
    kernel = []
    for f in range(n):
        if f not in pivots:
            v = zero_vec(n)
            v[f] = Fraction(1)
            for p, row in pivots.items():
                if f in row:
                    v[p] = Fraction(-row[f], row[p])
            kernel.append(v)
    if n in pivots:
        return LinearSolution(None, kernel)
    zero = Fraction(0)
    particular = [Fraction(pivots[p].get(n, 0), pivots[p][p]) if p in pivots else zero for p in range(n)]
    return LinearSolution(particular, kernel)


def solve_sparse(rows: list[dict[int, Fraction]], rhs: list[Fraction], nunknowns: int) -> LinearSolution:
    """Solve a sparse linear system given as dict rows plus right-hand sides."""
    if len(rows) != len(rhs):
        raise DimensionError("row/rhs length mismatch")
    return _solution((scaled({**r, nunknowns: b} if b else r)[0] for r, b in zip(rows, rhs)), nunknowns)


def solve_columns(blocks, unknowns: int) -> LinearSolution:
    """Solve Σ_j x_j·cols[j] = target for every (cols, target) in ``blocks``,
    a block's columns and target integer sparse vectors on one scale. Row k
    of a block, formed only where a column or the target has an entry, goes
    to the ``Echelon`` as it is."""
    rows = []
    for cols, target in blocks:
        block = {k: {unknowns: v} for k, v in target.items()}
        for j, col in enumerate(cols):
            for k, v in col.items():
                block.setdefault(k, {})[j] = v
        rows += block.values()
    return _solution(rows, unknowns)


def solve_linear(a: Matrix, b: Sequence[Fraction]) -> LinearSolution:
    """Solve A·x = b exactly; also returns a basis of ker(A)."""
    if a.rows != len(b):
        raise DimensionError("rhs length does not match row count")
    n = a.cols
    rows = ({**{c: y * x.denominator for c, y in v.items()}, n: x.numerator * den} if x else v
            for (den, v), x in zip(a.int_rows, vec(b)))
    return _solution(rows, n)


def kernel_basis(a: Matrix) -> list[list[Fraction]]:
    return _solution((v for _, v in a.int_rows), a.cols).kernel


def span_of(basis: Sequence[Sequence[Fraction]], n: int) -> Echelon:
    """The ``Echelon`` of dense vectors of length n; ``DimensionError`` otherwise."""
    if any(len(b) != n for b in basis):
        raise DimensionError("vectors of different lengths")
    return Echelon(scaled(sparse_vec(b))[0] for b in basis)


def in_span(basis: list[list[Fraction]], v: Sequence[Fraction]) -> bool:
    """Exact membership of v in the span of the given vectors."""
    return not span_of(basis, len(v)).reduce(scaled(sparse_vec(v))[0])
