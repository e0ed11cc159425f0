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
helpers the tests use and the package does not. ``fraction_table``,
``mul_basis``, ``mul_sparse``, ``fraction_cop``, ``cop_sparse``, ``s_cols``,
``yd_images`` and ``yd_rho`` read the integer stores back as Fractions, the
independent references of the tests that compare a contraction on integers
with one on ℚ; the cached ones hand every caller the same lists, which no
test mutates. ``acc`` adds into such a sparse dict, dropping a zero."""

from fractions import Fraction
from functools import cache

from hypothesis import settings

from hopfbrauer import hopf
from hopfbrauer.linalg import Echelon, Matrix, common_denominator, dense_vec, over, scaled, scaled_rows
from hopfbrauer.yd import YDObject

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@cache
def fraction_table(alg):
    """table[i][j] = e_i·e_j as (k, c) pairs, every c a nonzero Fraction:
    ``int_sp`` over its scale, built once per algebra."""
    den, table = alg.int_sp
    return [[tuple((k, Fraction(c, den)) for k, c in cell) for cell in row] for row in table]


def mul_basis(alg, i, j):
    """e_i·e_j as (k, c) pairs, every c a nonzero Fraction: ``int_sp`` over its scale."""
    return fraction_table(alg)[i][j]


def acc(d, key, val):
    """d[key] += val in place, the key dropped when the sum is zero."""
    v = d.get(key, 0) + val
    if v:
        d[key] = v
    else:
        d.pop(key, None)


def mul_sparse(alg, x, y, out=None):
    """x·y for sparse vectors over ℚ, contracted on ``mul_basis``; added into
    ``out`` in place when it is given, as ``mul_int`` does."""
    out = {} if out is None else out
    table = fraction_table(alg)
    for i, xi in x.items():
        for j, yj in y.items():
            for k, c in table[i][j]:
                acc(out, k, xi * yj * c)
    return out


def cop_sparse(h, i):
    """Δ(e_i) as (p, q, c) triples, every c a nonzero Fraction: ``int_cop`` over its scale."""
    den, rows = h.int_cop
    return tuple((p, q, Fraction(c, den)) for p, q, c in rows[i])


def fraction_cop(h):
    """``cop_sparse`` of every basis element, in basis order."""
    return [cop_sparse(h, i) for i in range(h.dim)]


@cache
def s_cols(h, inverse=False):
    """The columns S(e_j) (S⁻¹(e_j) if ``inverse``) as {k: Fraction}, built
    once per Hopf algebra, as the ``yd_`` readers below are per object."""
    den, cols = h.int_s_inv if inverse else h.int_s
    return [over(col, den) for col in cols]


@cache
def yd_images(a):
    """images[j][k] = e_k·e_j as {index: Fraction}, from ``int_images`` (None if none)."""
    if a.int_images is None:
        return None
    den, rows = a.int_images
    return [[over(v, den) for v in row] for row in rows]


@cache
def yd_rho(a):
    """rho[j] = ρ(e_j) as (a, k, c) triples for c·e_a ⊗ e_k, c a Fraction,
    from ``int_rho`` (None if none)."""
    if a.int_rho is None:
        return None
    den, rows = a.int_rho
    return [tuple((x, k, Fraction(c, den)) for x, k, c in row) for row in rows]


def dense_mult(alg):
    """The dense product tensor of ``alg``: [i][j] is the coefficient vector
    of e_i·e_j. The lists are new, so a test may corrupt them."""
    return [[dense_vec(dict(mul_basis(alg, i, j)), alg.dim) for j in range(alg.dim)] for i in range(alg.dim)]


def dense_cop(h):
    """The dense coproduct of ``h``: [i][p·dim + q] is the coefficient of
    e_p⊗e_q in Δ(e_i), in new lists as ``dense_mult`` gives them."""
    n = h.dim
    return [dense_vec({p * n + q: c for p, q, c in cop_sparse(h, i)}, n * n) for i in range(n)]


def sweedler2(h, i):
    """(Δ⊗id)Δ(e_i) as (l1, l2, l3, c) terms, every c a nonzero Fraction,
    contracted on ``cop_sparse``."""
    out = {}
    for p, q, c in cop_sparse(h, i):
        for u, v, d in cop_sparse(h, p):
            out[u, v, q] = out.get((u, v, q), 0) + c * d
    return tuple((*key, c) for key, c in out.items() if c)


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
