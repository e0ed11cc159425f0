"""Shared set-up and the tests' edge to the integer stores.

Every ``@given`` test draws the same examples on every run, with no
per-example deadline and no ``.hypothesis/`` database; each test keeps its
own ``max_examples``.

Each carrier has one form, its integer stores, built by ``from_int``:

- ``dense_algebra``, ``dense_hopf``, ``dense_yd`` and ``dense_qt`` hand a
  dense table over ℚ to ``from_int`` (``QTStructure``), each scaled once by
  ``linalg``; ``scaled_cells`` and ``sparse_yd`` do so for sparse tables;
- ``fraction_table``, ``mul_basis``, ``mul_sparse``, ``cop_sparse``,
  ``fraction_cop``, ``sweedler2`` ((Δ⊗id)Δ, the reference for ``int_cop2``),
  ``s_cols``, ``yd_images`` and ``yd_rho`` read the stores back as sparse
  Fractions: the only way ``tests/reference.py`` reads them, and ``acc``
  adds into such a dict, dropping a zero. The cached readers hand every
  caller the same lists, which no test mutates;
- ``unit_vec``, ``counit_vec``, ``s_matrix``, ``action_matrices``,
  ``coaction_rows``, ``r_vec`` and ``form_matrix`` read a store as a dense
  vector or matrix, ``r_pairs`` reads R as a sparse Fraction dict, and
  ``dense_mult`` and ``dense_cop`` write a product or a coproduct out in new
  lists, for tests that corrupt one entry;
- ``dense`` and ``column`` read a ``Matrix``'s integer rows back as dense
  Fraction rows or one column: the tests read a matrix densely only through
  them, bar the test of the tracer's ``data`` view itself; ``operator_to_vec``
  reads one in the matrix-unit basis of End(kⁿ);
- ``dh4_named`` reads a named D(H₄) generator back as a dense vector;
- ``diag``, ``zero_matrix``, ``transpose``, ``rank``, ``consistent`` and
  ``int_form`` are dense-matrix helpers that the package does not have."""

from fractions import Fraction
from functools import cache

from hypothesis import settings

from hopfbrauer import hopf
from hopfbrauer.algebra import StructureAlgebra
from hopfbrauer.hopf import HopfAlgebra
from hopfbrauer.linalg import (
    Echelon,
    Matrix,
    common_denominator,
    dense_vec,
    over,
    scaled,
    scaled_rows,
    scaled_vecs,
    sparse_vec,
    vec,
)
from hopfbrauer.sweedler import build_dh4
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
        row = table[i]
        for j, yj in y.items():
            xy = xi * yj
            for k, c in row[j]:
                acc(out, k, xy * c)
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


def dense_algebra(basis, unit, mult, name=""):
    """``StructureAlgebra.from_int`` of the dense unit and product tensor
    over ℚ, mult[i][j] the coefficient vector of e_i·e_j."""
    dim = len(basis)
    den, cells = scaled_rows(sparse_vec(vec(v)).items() for row in mult for v in row)
    unit, den_u = scaled(sparse_vec(vec(unit)))
    table = [cells[i * dim:(i + 1) * dim] for i in range(dim)]
    return StructureAlgebra.from_int(basis, (den_u, unit), table, den, name)


def dense_hopf(alg, coproduct, counit, antipode, antipode_inv=None, name="", meta=None):
    """``HopfAlgebra.from_int`` of the dense coproduct (coproduct[i][p·dim + q]
    the coefficient of e_p⊗e_q in Δ(e_i)), counit and antipode matrices over
    ℚ; S⁻¹ is S inverted when ``antipode_inv`` is None."""
    n = alg.dim
    cop = scaled_rows([(k // n, k % n, c) for k, c in enumerate(vec(row)) if c] for row in coproduct)
    counit, den_e = scaled(sparse_vec(vec(counit)))
    s, s_inv = (m.scaled_cols() for m in (antipode, antipode.inverse() if antipode_inv is None else antipode_inv))
    return HopfAlgebra.from_int(alg, cop, (den_e, counit), s, s_inv, name, meta)


def dense_yd(h, dim, alg=None, action=None, coaction=None):
    """``YDObject.from_int`` of ``action`` (dim(H) matrices, dim × dim, the
    columns of action[i] the images e_i·e_j) and ``coaction`` (dim rows,
    row[j][a·dim(H) + k] the coefficient of e_a ⊗ e_k in ρ(e_j)) over ℚ."""
    n = h.dim
    images = rho = None
    if action is not None:
        den, cols = scaled_vecs(sparse_vec(column(m, j)) for j in range(dim) for m in action)
        images = den, [cols[j * n:(j + 1) * n] for j in range(dim)]
    if coaction is not None:
        rho = scaled_rows([(k // n, k % n, c) for k, c in enumerate(vec(row)) if c] for row in coaction)
    return YDObject.from_int(h, dim, alg, images, rho)


def unit_vec(alg):
    """1 as a dense Fraction vector, from ``int_unit``."""
    den, unit = alg.int_unit
    return dense_vec(over(unit, den), alg.dim)


def counit_vec(h):
    """ε as a dense Fraction vector, from ``int_counit``."""
    den, counit = h.int_counit
    return dense_vec(over(counit, den), h.dim)


def s_matrix(h, inverse=False):
    """The matrix of S (S⁻¹ if ``inverse``), column j read from the store."""
    return Matrix.from_cols([dense_vec(col, h.dim) for col in s_cols(h, inverse)])


@cache
def action_matrices(a):
    """action[i], the matrix whose column j is e_i·e_j, from ``int_images``
    (None if none), built once per object."""
    images = yd_images(a)
    return None if images is None else [Matrix.from_cols([dense_vec(row[i], a.dim) for row in images])
                                        for i in range(a.hopf.dim)]


@cache
def coaction_rows(a):
    """coaction[j][a·dim(H) + k], the coefficient of e_a ⊗ e_k in ρ(e_j), from
    ``int_rho`` (None if none), built once per object."""
    if a.int_rho is None:
        return None
    n = a.hopf.dim
    return [dense_vec({x * n + k: c for x, k, c in row}, a.dim * n) for row in yd_rho(a)]


def r_vec(rt, inverse=False):
    """R (R⁻¹ if ``inverse``) as its dim² dense coefficients, from ``int_pairs``
    (``int_inv``), e_i ⊗ e_j at i·dim + j."""
    n, (den, pairs) = rt.hopf.dim, rt.int_inv if inverse else rt.int_pairs
    return dense_vec({i * n + j: Fraction(c, den) for (i, j), c in pairs.items()}, n * n)


def r_pairs(rt):
    """R as {(i, j): Fraction}, from ``int_pairs``, keys in store order."""
    den, pairs = rt.int_pairs
    return over(pairs, den)


def form_matrix(den, rows):
    """The dense Fraction matrix of integer rows over den: a form r, r⁻¹ or σ
    read from its store."""
    return Matrix([[Fraction(v, den) for v in row] for row in rows])


def dense(m):
    """The matrix m as dense rows of Fractions, read from its integer rows."""
    return [dense_vec(over(v, den), m.cols) for den, v in m.int_rows]


def column(m, j):
    """Column j of the matrix m as a dense list of Fractions."""
    return [Fraction(v.get(j, 0), den) for den, v in m.int_rows]


def operator_to_vec(m):
    """The n×n matrix m in the matrix-unit basis of End(kⁿ), E_pq at q·n + p,
    as a dense list of Fractions."""
    n = m.rows
    return dense_vec({q * n + p: Fraction(x, den) for p, (den, v) in enumerate(m.int_rows) for q, x in v.items()}, n * n)


def dh4_named(label):
    """The named generator ``label`` of D(H₄) ("g", "phi_h", …) as a dense
    list of Fractions, read from its (D, {index: integer}) store."""
    den, v = build_dh4()[0].meta["named"][label]
    return dense_vec(over(v, den), 16)


def diag(entries):
    """The diagonal matrix of the rationals ``entries``."""
    n = len(entries)
    return Matrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def zero_matrix(rows, cols):
    """The rows × cols zero matrix."""
    return Matrix([[0] * cols for _ in range(rows)])


def transpose(m):
    """The transpose of the matrix m, dense."""
    return Matrix([list(col) for col in zip(*dense(m))])


def rank(m):
    """The rank of the matrix m: the row count of the ``Echelon`` of its integer rows."""
    return len(Echelon(v for _, v in m.int_rows).rows)


def consistent(sol):
    """Whether the ``LinearSolution`` sol has a particular solution."""
    return sol.particular is not None


def int_form(m):
    """(D_r, D_r·m as integer rows), D_r the least common denominator of the
    matrix m: the ``CoQTStructure`` and ``LazyCocycle`` store of a dense form."""
    rows = dense(m)
    den = common_denominator(v for row in rows for v in row)
    return den, [[v.numerator * (den // v.denominator) for v in row] for row in rows]
