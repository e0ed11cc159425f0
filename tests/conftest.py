"""Deterministic hypothesis for the test suite: every ``@given`` test draws
the same examples on every run, with no per-example deadline, and no result
depends on the ``.hypothesis/`` example database. Each test keeps its own
``max_examples``. ``dense_mult`` and ``dense_cop`` write an algebra's product
and a Hopf algebra's coproduct out as the dense tensors the constructors
take, for tests that corrupt one entry or compare with a dense reference;
``sweedler2`` is (Δ⊗id)Δ on Fractions, the reference for ``int_cop2``.
``scaled_cells`` and ``sparse_yd`` hand sparse rational tables to the
``from_int`` constructors, and ``dense_qt`` hands dense R and R⁻¹ vectors to
``QTStructure``, each scaled once by the package's own scaling. ``zero_matrix``,
``transpose``, ``rank``, ``consistent`` and ``int_form`` are the dense-matrix
helpers the tests use and the package does not."""

from hypothesis import settings

from hopfbrauer import hopf
from hopfbrauer.linalg import Echelon, Matrix, common_denominator, dense_vec, scaled, scaled_rows
from hopfbrauer.yd import YDObject

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def dense_mult(alg):
    """The dense product tensor of ``alg``: [i][j] is the coefficient vector
    of e_i·e_j. The lists are new, so a test may corrupt them."""
    return [[dense_vec(dict(alg.mul_basis(i, j)), alg.dim) for j in range(alg.dim)] for i in range(alg.dim)]


def dense_cop(h):
    """The dense coproduct of ``h``: [i][p·dim + q] is the coefficient of
    e_p⊗e_q in Δ(e_i), in new lists as ``dense_mult`` gives them."""
    n = h.dim
    return [dense_vec({p * n + q: c for p, q, c in h.cop_sparse(i)}, n * n) for i in range(n)]


def sweedler2(h, i):
    """(Δ⊗id)Δ(e_i) as (l1, l2, l3, c) terms, every c a nonzero Fraction,
    contracted on ``cop_sparse``."""
    acc = {}
    for p, q, c in h.cop_sparse(i):
        for u, v, d in h.cop_sparse(p):
            acc[u, v, q] = acc.get((u, v, q), 0) + c * d
    return tuple((*key, c) for key, c in acc.items() if c)


def scaled_cells(rows):
    """(D, rows) for rows of cells, each cell a dict {k: c} or a sequence of
    (…, c) terms over ℚ: every c times D, the least common denominator of
    them all, by ``scaled_rows`` (so ``ValueError`` on a c that is not
    rational). Dict cells come back as dicts, the others as tuples."""
    rows = [list(row) for row in rows]
    den, cells = scaled_rows(cell.items() if isinstance(cell, dict) else cell for row in rows for cell in row)
    cells = iter(cells)
    return den, [[dict(next(cells)) if isinstance(cell, dict) else next(cells) for cell in row] for row in rows]


def sparse_yd(h, dim, alg=None, images=None, rho=None):
    """``YDObject.from_int`` of rational ``images`` (rows of {k: c}) and
    ``rho`` (rows of (a, k, c) terms), each scaled once."""
    images = None if images is None else scaled_cells(images)
    return YDObject.from_int(h, dim, alg, images, None if rho is None else scaled_rows(rho))


def dense_qt(h, r, r_inv):
    """The ``QTStructure`` of dense R and R⁻¹ over ℚ (dim² entries each),
    each expanded by ``hopf.t2_from_vec`` and scaled once."""
    (x, dx), (y, dy) = (scaled(hopf.t2_from_vec(v, h.dim)) for v in (r, r_inv))
    return hopf.QTStructure(h, (dx, x), (dy, y))


def zero_matrix(rows, cols):
    """The rows × cols zero matrix."""
    return Matrix([[0] * cols for _ in range(rows)])


def transpose(m):
    """The transpose of the matrix m, dense."""
    return Matrix([[m.data[r][c] for r in range(m.rows)] for c in range(m.cols)])


def rank(m):
    """The rank of the matrix m: the row count of the ``Echelon`` of its integer rows."""
    return len(Echelon(v for _, v in m.int_rows).rows)


def consistent(sol):
    """Whether the ``LinearSolution`` sol has a particular solution."""
    return sol.particular is not None


def int_form(m):
    """(D_r, D_r·m as integer rows), D_r the least common denominator of the
    matrix m: the ``CoQTStructure`` and ``LazyCocycle`` store of a dense form."""
    den = common_denominator(v for row in m.data for v in row)
    return den, [[v.numerator * (den // v.denominator) for v in row] for row in m.data]
