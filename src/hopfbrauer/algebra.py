"""Finite-dimensional unital associative algebras via structure constants.

An algebra is a basis, ``int_unit`` = (D_u, D_u·1 as {k: c}) and ``int_sp``
= (D_m, table), table[i][j] = D_m·e_i·e_j as (k, c) pairs sorted by k, every
c a nonzero int: one form, built by ``from_int``, which ``defio`` reads and
writes over ℚ. ``int_content`` is the one rule that checks every sparse
integer store of the package and puts it in lowest terms, sorted by key.
Elements are dense or sparse (``{basis index: nonzero coefficient}``)
vectors. Every product is
``mul_int``, one loop (``_contract``) on integers; ``mul_vec`` wraps it for
dense vectors, for ``sandwich_matrix`` only.
A law whose solutions form a subalgebra is checked on ``generators`` first
(``on_generators``). Hopf algebras and Yetter-Drinfeld module algebras are
layered over this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .linalg import (
    Echelon,
    IntVec,
    Matrix,
    dense_vec,
    mat_det,
    over,
    scale_sparse,
    scaled,
    solve_columns,
    sparse_vec,
    zero_vec,
)


class CheckReport:
    """Outcome of an axiom check: empty failure list means valid."""

    def __init__(self, title: str):
        self.title = title
        self.failures: list[str] = []
        self.data: dict = {}

    def require(self, cond: bool, message: str) -> bool:
        if not cond:
            self.failures.append(message)
        return cond

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok

    def raise_if_failed(self) -> "CheckReport":
        if self.failures:
            raise AssertionError(f"{self.title}: " + "; ".join(self.failures[:8]))
        return self

    def merge(self, other: "CheckReport") -> None:
        self.failures.extend(f"{other.title}: {f}" for f in other.failures)

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} failures"
        return f"CheckReport({self.title}: {state})"


def _contract(sp, x: dict, y: dict, out: dict) -> dict:
    """Add Σ x_i·y_j·e_i e_j into ``out`` in place and return it, e_i e_j read
    from the sparse table sp[i][j] = ((k, c), ...); the number type of x, y
    and sp is whatever they share. Entries that cancel are removed."""
    for i, xi in x.items():
        spi = sp[i]
        for j, yj in y.items():
            coef = xi * yj
            for k, c in spi[j]:
                v = coef * c
                if k in out:
                    v += out[k]
                    if not v:
                        del out[k]
                        continue
                out[k] = v
    return out


def int_content(den: int, cells: list, dim: int, width: int = 0) -> tuple[int, list[tuple]]:
    """The one store rule, which every sparse integer store passes: (den/g,
    each cell's terms as tuples sorted by key, each c divided by g), g the gcd
    of den and every c. A term is (k, c), or with ``width`` (a, b, c), keyed
    (a, b). ``ValueError``, naming the scale or the key, unless den > 0 and
    every c ≠ 0 are ints, every k is in range(dim) or (a, b) in
    range(dim)×range(width), no key occurs twice in a cell and each cell is
    a collection (it is read twice)."""
    if type(den) is not int or den <= 0:
        raise ValueError(f"scale {den!r} is not a positive int")

    def bad(k, what: str = "") -> ValueError:
        key = (divmod(k, width) if type(k) is int else k) if width else (k,)
        shape = f"range({dim})×range({width})" if width else f"range({dim})"
        return ValueError(f"sparse term index {key} {what or 'is not in ' + shape}")

    # a pair (a, b) is checked as its flat index a·width + b; a pair that has
    # none stands for itself, so the message names it
    size, g = dim * width if width else dim, den
    for cell in cells:
        if iter(cell) is cell:
            raise ValueError("integer terms must be a collection, not an iterator")
        if width:
            cell = ((a * width + b if type(a) is type(b) is int and 0 <= b < width else (a, b), c) for a, b, c in cell)
        seen = set()
        for k, c in cell:
            if type(k) is not int or not 0 <= k < size:
                raise bad(k)
            if k in seen:
                raise bad(k, "occurs twice")
            if type(c) is not int or not c:
                what = "a zero coefficient" if type(c) is int else f"coefficient {c!r}"
                raise bad(k, f"has {what}, not a nonzero int")
            seen.add(k)
            if g != 1:
                g = math.gcd(g, c)
    term = tuple if g == 1 else lambda t: (*t[:-1], t[-1] // g)
    return den // g, [tuple(sorted(map(term, cell))) if cell else () for cell in cells]


class StructureAlgebra:
    """Unital associative algebra given by structure constants over ℚ.

    The state is ``int_unit`` and ``int_sp``, written by ``from_int``, the
    one constructor. ``generators`` and ``associative`` are cached
    certificates.
    """

    @classmethod
    def from_int(
        cls, basis: Sequence[str], unit: tuple[int, IntVec], table: Sequence[Sequence[Iterable[tuple[int, int]]]],
        den: int, name: str = "",
    ) -> "StructureAlgebra":
        """The algebra whose e_i · e_j is Σ (c/den)·e_k over the (k, c) pairs
        of table[i][j], every c a nonzero int and den a positive int, and
        whose 1 is unit = (D_u, {k: c}) read likewise.

        ``int_content`` checks the terms of table and unit, sorts them and
        divides each store by its gcd, so ``int_sp`` = (D_m, table) is one
        canonical form of the constants, D_m their least common denominator;
        ``int_unit`` likewise. Each table[i][j] is a collection (a list, or a
        dict's items).
        """
        dim = len(basis)
        if len(table) != dim or any(len(row) != dim for row in table):
            raise ValueError("multiplication table has wrong shape")
        den, cells = int_content(den, [pairs for row in table for pairs in row], dim)
        if len(unit) != 2 or not isinstance(unit[1], dict):
            raise ValueError(f"unit must be (scale, {{index: int}}), not {unit!r}")
        den_u, (unit,) = int_content(unit[0], [unit[1].items()], dim)
        alg = cls.__new__(cls)
        alg.dim = dim
        alg.basis = [str(b) for b in basis]
        alg.int_unit = den_u, dict(unit)
        alg.name = name
        alg.int_sp = den, [cells[i * dim:(i + 1) * dim] for i in range(dim)]
        return alg

    @cached_property
    def generators(self) -> tuple[int, ...] | None:
        """Basis indices G, taken greedily in index order, whose closure from 1
        under left multiplication by G spans the algebra, decided by an
        ``Echelon`` on ``int_sp``; None when the unit law fails or the span
        falls short."""
        if _unit_law_failures(self):
            return None
        span, gens = Echelon(), []

        def close(pairs):
            for g, v in pairs:  # grows as vectors are found
                w = span.insert(v if g is None else self.mul_int({g: 1}, v))
                if w:
                    pairs += [(h, w) for h in gens]

        close([(None, self.int_unit[1])])
        for i in range(self.dim):
            if len(span.rows) < self.dim and span.reduce({i: 1}):
                gens.append(i)
                close([(i, v) for v in span.rows.values()])
        return tuple(gens) if len(span.rows) == self.dim else None

    @cached_property
    def associative(self) -> bool:
        """Associativity on ``generators``: the left nucleus {x : (xy)z =
        x(yz) ∀y, z} is a subalgebra holding 1, so all of A once it holds G."""
        return self.generators is not None and next(_associativity_failures(self, self.generators), None) is None

    def same_product(self, other: "StructureAlgebra") -> bool:
        """Equal structure constants, compared on the integer stores."""
        return self.int_sp == other.int_sp

    # -- element arithmetic on raw coefficient vectors -------------------

    def mul_vec(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> list[Fraction]:
        """x·y for dense coefficient vectors, by ``mul_int`` on their scaled
        nonzero entries."""
        (xi, dx), (yi, dy) = scaled(sparse_vec(x)), scaled(sparse_vec(y))
        return dense_vec(over(self.mul_int(xi, yi), dx * dy * self.int_sp[0]), self.dim)

    def mul_int(self, x: IntVec, y: IntVec, out: IntVec | None = None) -> IntVec:
        """D_m·(x·y) for integer sparse x and y, contracted against the table
        of ``int_sp`` with ``_contract``, so the cost is nnz(x)·nnz(y)·nnz(e_i
        e_j). When ``out`` is given, x·y is added into it in place and it is
        returned; coefficients that cancel are removed."""
        return _contract(self.int_sp[1], x, y, {} if out is None else out)

    def basis_vec(self, i: int) -> list[Fraction]:
        v = zero_vec(self.dim)
        v[i] = Fraction(1)
        return v

    def is_invertible(self, x: Sequence[Fraction]) -> bool:
        """Whether left multiplication by x is bijective; its matrix goes to
        ``mat_det`` as integer rows over D_x·D_m."""
        xi, den = scaled(sparse_vec(x))
        rows = [{} for _ in range(self.dim)]
        for j in range(self.dim):
            for k, c in self.mul_int(xi, {j: 1}).items():
                rows[k][j] = c
        den *= self.int_sp[0]
        return mat_det(Matrix.from_int_rows([(den, row) for row in rows], self.dim)) != 0

    def __repr__(self) -> str:
        label = self.name or "algebra"
        return f"StructureAlgebra({label}, dim={self.dim})"


class Grading:
    """ℤ₂-grading by a homogeneous basis: parity[i] ∈ {0, 1} per basis index."""

    def __init__(self, parent: StructureAlgebra, parity: tuple[int, ...]):
        if len(parity) != parent.dim:
            raise ValueError("parity vector has wrong length")
        if any(p not in (0, 1) for p in parity):
            raise ValueError("parity entries must be 0 or 1")
        self.parent = parent
        self.parity = parity

    def compatible(self) -> CheckReport:
        """Multiplication must respect parity additively mod 2."""
        rep = CheckReport("grading compatibility")
        a = self.parent
        for i in range(a.dim):
            for j in range(a.dim):
                want = (self.parity[i] + self.parity[j]) % 2
                for k, _ in a.int_sp[1][i][j]:
                    rep.require(
                        self.parity[k] == want,
                        f"product {a.basis[i]}·{a.basis[j]} hits parity-{self.parity[k]} term {a.basis[k]}",
                    )
        return rep


def _unit_law_failures(a: StructureAlgebra) -> list[int]:
    """The i with U·e_i or e_i·U ≠ D_u·D_m·e_i, U = D_u·1 on ``int_sp``."""
    den_m, sp = a.int_sp
    den_u, unit = a.int_unit
    return [
        i for i in range(a.dim)
        if not _contract(sp, unit, {i: 1}, {}) == {i: den_u * den_m} == _contract(sp, {i: 1}, unit, {})
    ]


def _associativity_failures(a: StructureAlgebra, idx: Iterable[int]) -> Iterator[str]:
    """(e_i e_j) e_l = e_i (e_j e_l) for i in idx, both sides over D_m²."""
    sp = a.int_sp[1]
    # e_j e_l as a dict, built once per pair and read by every i
    products = [[dict(term) for term in row] for row in sp]
    for i in idx:
        for j, ij in enumerate(products[i]):
            jl = products[j]
            for l in range(a.dim):
                if _contract(sp, ij, {l: 1}, {}) != _contract(sp, {i: 1}, jl[l], {}):
                    yield f"associativity fails at triple ({i},{j},{l})"


def on_generators(law: Callable[[Iterable[int]], Iterator[str]], alg: StructureAlgebra, ready: bool) -> list[str]:
    """The failures ``law`` yields over ``alg``'s basis indices: [] when
    ``ready`` (the prerequisites making the law's solutions a subalgebra),
    ``alg.associative`` and law(``alg.generators``) yields none, else the
    itemized list(law(range(alg.dim)))."""
    if ready and alg.associative and next(law(alg.generators), None) is None:
        return []
    return list(law(range(alg.dim)))


def check_algebra_axioms(a: StructureAlgebra) -> CheckReport:
    """The two-sided unit law, then associativity on all basis triples,
    unless ``a.associative`` holds, both on integers over ``int_sp``."""
    rep = CheckReport(f"algebra axioms ({a.name or 'unnamed'})")
    if a.generators is None:
        rep.failures += [f"unit law fails at basis element {a.basis[i]}" for i in _unit_law_failures(a)]
    if not a.associative:
        rep.failures += _associativity_failures(a, range(a.dim))
    return rep


def opposite_algebra(a: StructureAlgebra) -> StructureAlgebra:
    den, sp = a.int_sp
    table = [[sp[j][i] for j in range(a.dim)] for i in range(a.dim)]
    return StructureAlgebra.from_int(a.basis, a.int_unit, table, den, name=f"{a.name}^op" if a.name else "op")


def endomorphism_algebra(n: int) -> StructureAlgebra:
    """End(kⁿ) on the matrix-unit basis E_pq (e_q ↦ e_p).

    Flat index of E_pq is q·n + p: the dual index is major, matching the
    identification End(V) ≅ V* ⊗ V used throughout. The n³ products
    E_pq·E_qs = E_ps go to ``StructureAlgebra.from_int``; all others are zero.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    dim = n * n
    basis = [f"E{p + 1}{q + 1}" for q in range(n) for p in range(n)]
    unit = {}
    table = [[[] for _ in range(dim)] for _ in range(dim)]
    for p in range(n):
        unit[p * n + p] = 1
        for q in range(n):
            for s in range(n):
                table[q * n + p][s * n + q].append((s * n + p, 1))
    return StructureAlgebra.from_int(basis, (1, unit), table, 1, name=f"End(k^{n})")


def commutator_columns(a: StructureAlgebra, x: IntVec, sign: int, y: IntVec, js) -> list[IntVec]:
    """D_m·(e_j·x + sign·(y·e_j)) for each j in js, x and y integers on one
    scale: the ``solve_columns`` columns of v ↦ v·x + sign·(y·v) on the js."""
    y = {k: sign * c for k, c in y.items()}
    return [a.mul_int({j: 1}, x, a.mul_int(y, {j: 1})) for j in js]


def _commutator_blocks(a: StructureAlgebra, cols: Sequence[int], signs: Sequence[int]) -> list:
    """z·e_i = signs[i]·e_i·z for z = Σ_c z_c·e_{cols[c]}, a block per i."""
    return [(commutator_columns(a, {i: 1}, -sign, {i: 1}, cols), {}) for i, sign in enumerate(signs)]


def center(a: StructureAlgebra) -> list[list[Fraction]]:
    """Basis of {z : z·e_i = e_i·z for all i}, by one linear solve."""
    return solve_columns(_commutator_blocks(a, range(a.dim), [1] * a.dim), a.dim).kernel


def super_center(a: StructureAlgebra, grading: Grading) -> list[list[Fraction]]:
    """Basis of the ℤ₂-graded center {z : z·b = (−1)^{|z||b|} b·z}.

    Computed per homogeneous component of z, so the result is a union of
    even and odd solution bases.
    """
    grading.compatible().raise_if_failed()
    out: list[list[Fraction]] = []
    for pz in (0, 1):
        cols = [j for j in range(a.dim) if grading.parity[j] == pz]
        if not cols:
            continue
        signs = [-1 if pz and p else 1 for p in grading.parity]
        kernel = solve_columns(_commutator_blocks(a, cols, signs), len(cols)).kernel
        out += [dense_vec(dict(zip(cols, kvec)), a.dim) for kvec in kernel]
    return out


def sandwich_matrix(a: StructureAlgebra) -> Matrix:
    """Matrix of A ⊗ A^op → End(A), x ⊗ y ↦ (c ↦ x·c·y), as integer rows over
    D_m²: each e_i·e_k once by ``mul_vec``, each (e_i·e_k)·e_j by ``mul_int``."""
    d = a.dim
    den = a.int_sp[0]
    rows = [{} for _ in range(d * d)]
    basis = [a.basis_vec(i) for i in range(d)]
    for i, ei in enumerate(basis):
        for k, ek in enumerate(basis):
            eik = scale_sparse(sparse_vec(a.mul_vec(ei, ek)), den)
            for j in range(d) if eik else ():
                for p, c in a.mul_int(eik, {j: 1}).items():
                    rows[k * d + p][i * d + j] = c
    return Matrix.from_int_rows([(den * den, row) for row in rows], d * d)


def is_central_simple(a: StructureAlgebra) -> bool:
    """Azumaya-over-a-field criterion: the sandwich map is bijective."""
    return mat_det(sandwich_matrix(a)) != 0
