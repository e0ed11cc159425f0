"""Yetter-Drinfeld modules and module algebras.

Every object over a fixed Hopf algebra H is a ``YDObject``: a carrier with
some of a product, a left H-action (one matrix per H-basis element) and a
right H-coaction. Coactions are stored as one dense vector per carrier
basis element, ``coaction[j][a·dim(H) + k]`` the coefficient of e_a ⊗ e_k
in ρ(e_j), and read through the sparse view ``YDObject.rho``.

The compatibility demanded throughout is the one for right H^op-comodule
algebras, ρ(ab) = a₍₀₎b₍₀₎ ⊗ b₍₁₎a₍₁₎, together with the Yetter-Drinfeld
condition ρ(l·b) = l₍₂₎·b₍₀₎ ⊗ l₍₃₎ b₍₁₎ S⁻¹(l₍₁₎).

This module also hosts the braided machinery: the # product, H-opposites,
End(M) structures, the F/G maps whose bijectivity defines H-Azumaya
algebras, gradings, braidings, centralizers, and the inner / strongly
inner action solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .algebra import CheckReport, StructureAlgebra, endomorphism_algebra, opposite_algebra
from .hopf import CoQTStructure, HopfAlgebra, QTStructure, bowtie_vec
from .linalg import (
    Matrix,
    SparseVec,
    dense_vec,
    in_span,
    is_zero_vec,
    kron_sum,
    mat_det,
    rational_is_square,
    solve_sparse,
    sparse_sum,
    sparse_vec,
    zero_vec,
)

Q = Fraction


class GradingError(ValueError):
    """Basis is not homogeneous for the requested ℤ₂-grading."""


class NoRationalNormalization(ValueError):
    """u² is a scalar with no rational square root, so u cannot be normalized."""


# ---------------------------------------------------------------------------
# The carrier
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class YDObject:
    """A space over H carrying some of a product, a left H-action and a
    right H-coaction; a module, a module algebra, a comodule algebra, a YD
    module or a YD module algebra is this one type with the other fields None.

    ``dim`` is the carrier dimension (``alg.dim`` when there is a product);
    ``action[i]`` is the matrix of e_iᴴ; ``coaction[j]`` is ρ(e_j) in the
    flat format of the module docstring. Objects are never mutated, so the
    sparse views ``rho`` (of the coaction) and ``images`` (of the action)
    are computed once, on first use, and shared by every construction and
    check applied to the object.
    """

    hopf: HopfAlgebra
    dim: int
    alg: StructureAlgebra | None = None
    action: list[Matrix] | None = None
    coaction: list[list[Fraction]] | None = None

    def __post_init__(self):
        if self.alg is not None and self.alg.dim != self.dim:
            raise ValueError(f"carrier dimension {self.dim} differs from the algebra's {self.alg.dim}")

    @cached_property
    def rho(self) -> list[tuple[tuple[int, int, Fraction], ...]]:
        """rho[j] = ρ(e_j) as sparse (carrier index, H index, coeff) triples."""
        return [coaction_sparse(self.coaction, self.hopf.dim, j) for j in range(self.dim)]

    @cached_property
    def images(self) -> list[list[SparseVec]]:
        """images[j][k] = e_kᴴ · e_j as a sparse vector."""
        cols = [[sparse_vec(m.col(j)) for j in range(self.dim)] for m in self.action]
        return [[col[j] for col in cols] for j in range(self.dim)]

    def act_matrix(self, hvec: Sequence[Fraction]) -> Matrix:
        """The matrix by which the element Σ hvec[i]·e_i of H acts."""
        out = [[Q(0)] * self.dim for _ in range(self.dim)]
        for i, c in enumerate(hvec):
            if c:
                for r, row in enumerate(self.action[i].data):
                    for s, v in enumerate(row):
                        if v:
                            out[r][s] += c * v
        return Matrix(out)

    def same_structure(self, other: "YDObject") -> bool:
        """Equal product, action and coaction (compared exactly; None only
        equals None)."""
        return (
            (self.alg is None) == (other.alg is None)
            and (self.alg is None or self.alg.mult == other.alg.mult)
            and self.action == other.action
            and self.coaction == other.coaction
        )


def coaction_sparse(coaction: list[list[Fraction]], hdim: int, j: int):
    """ρ(e_j) as sparse (carrier index, H index, coeff) triples."""
    return tuple(
        (k // hdim, k % hdim, c) for k, c in enumerate(coaction[j]) if c
    )


def grouplike_index(h: HopfAlgebra) -> int | None:
    """Index of the grouplike that grades objects over H: meta "g" (H₄) or "c" (E(2))."""
    return h.meta.get("g") if h.meta.get("g") is not None else h.meta.get("c")


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------


def check_module(m: YDObject) -> CheckReport:
    rep = CheckReport(f"H-module over {m.hopf.name}")
    h = m.hopf
    rep.require(m.act_matrix(h.alg.unit) == Matrix.identity(m.dim), "unit of H does not act as id")
    images = m.images
    for i in range(h.dim):
        for j in range(h.dim):
            ij = h.alg.mul_basis(i, j)
            ok = all(
                sparse_sum((c, images[k][i]) for k, c in images[y][j].items())
                == sparse_sum((c, images[y][k]) for k, c in ij)
                for y in range(m.dim)
            )
            rep.require(ok, f"action not multiplicative at ({h.alg.basis[i]},{h.alg.basis[j]})")
    return rep


def check_module_algebra(a: YDObject) -> CheckReport:
    """Left H-module algebra: h·(xy) = (h₍₁₎·x)(h₍₂₎·y), h·1 = ε(h)1."""
    rep = CheckReport(f"module algebra over {a.hopf.name}")
    rep.merge(check_module(a))
    h = a.hopf
    alg = a.alg
    images = a.images
    for i in range(h.dim):
        acted_one = a.action[i].apply(alg.unit)
        rep.require(
            acted_one == [h.counit[i] * u for u in alg.unit],
            f"h·1 ≠ ε(h)1 at {h.alg.basis[i]}",
        )
        cop = h.cop_sparse(i)
        for x in range(alg.dim):
            for y in range(alg.dim):
                lhs = sparse_sum((c, images[k][i]) for k, c in alg.mul_basis(x, y))
                rhs = sparse_sum((c, alg.mul_sparse(images[x][p], images[y][q])) for p, q, c in cop)
                rep.require(
                    lhs == rhs,
                    f"module-algebra law fails at ({h.alg.basis[i]}; {alg.basis[x]},{alg.basis[y]})",
                )
    return rep


def check_comodule(m: YDObject) -> CheckReport:
    rep = CheckReport(f"H-comodule over {m.hopf.name}")
    h = m.hopf
    dim = m.dim
    for j in range(dim):
        sp = m.rho[j]
        ej = zero_vec(dim)
        for a, k, c in sp:
            ej[a] += c * h.counit[k]
        want = zero_vec(dim)
        want[j] = Q(1)
        rep.require(ej == want, f"(id⊗ε)ρ fails at index {j}")
        lhs: dict[tuple[int, int, int], Fraction] = {}
        rhs: dict[tuple[int, int, int], Fraction] = {}
        for a, k, c in sp:
            for b, l, d in m.rho[a]:
                key = (b, l, k)
                lhs[key] = lhs.get(key, Q(0)) + c * d
            for p, q, d in h.cop_sparse(k):
                key = (a, p, q)
                rhs[key] = rhs.get(key, Q(0)) + c * d
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        rep.require(lhs == rhs, f"coassociativity of ρ fails at index {j}")
    return rep


def check_comodule_algebra_op(a: YDObject) -> CheckReport:
    """Right H^op-comodule algebra: ρ(xy) = x₍₀₎y₍₀₎ ⊗ y₍₁₎x₍₁₎, ρ(1) = 1⊗1."""
    rep = CheckReport(f"H^op-comodule algebra over {a.hopf.name}")
    rep.merge(check_comodule(a))
    h = a.hopf
    alg = a.alg
    n = h.dim
    rho = a.rho
    rho_flat = [sparse_vec(row) for row in a.coaction]
    unit = sparse_vec(alg.unit)
    rho_one = sparse_sum((c, rho_flat[j]) for j, c in unit.items())
    rep.require(rho_one == _tensor(unit.items(), sparse_vec(h.alg.unit).items(), n), "ρ(1) ≠ 1⊗1")
    for x in range(alg.dim):
        for y in range(alg.dim):
            lhs = sparse_sum((c, rho_flat[j]) for j, c in alg.mul_basis(x, y))
            rhs = sparse_sum(
                (cx * cy, _tensor(alg.mul_basis(ax, ay), h.alg.mul_basis(ky, kx), n))
                for ax, kx, cx in rho[x]
                for ay, ky, cy in rho[y]
            )
            rep.require(lhs == rhs, f"ρ not H^op-multiplicative at ({alg.basis[x]},{alg.basis[y]})")
    return rep


def check_yd_condition(m: YDObject) -> CheckReport:
    """ρ(l·b) = l₍₂₎·b₍₀₎ ⊗ l₍₃₎ b₍₁₎ S⁻¹(l₍₁₎) on all basis pairs."""
    rep = CheckReport(f"Yetter-Drinfeld condition over {m.hopf.name}")
    h = m.hopf
    n = h.dim
    dim = m.dim
    images = m.images
    rho = m.rho
    rho_flat = [sparse_vec(row) for row in m.coaction]
    sinv = [sparse_vec(h.antipode_inv.col(k)) for k in range(n)]

    def h_factor(l3: int, k: int, l1: int):
        """(e_l3 e_k) S⁻¹(e_l1), bracketed as in the condition."""
        return h.alg.mul_sparse(dict(h.alg.mul_basis(l3, k)), sinv[l1]).items()

    for li in range(n):
        sw2 = h.sweedler2(li)
        for b in range(dim):
            lhs = sparse_sum((c, rho_flat[j]) for j, c in images[b][li].items())
            rhs = sparse_sum(
                (c * d, _tensor(images[a][l2].items(), h_factor(l3, k, l1), n))
                for l1, l2, l3, c in sw2
                for a, k, d in rho[b]
            )
            rep.require(
                lhs == rhs,
                f"YD condition fails at (l={h.alg.basis[li]}, b=index {b})",
            )
    return rep


def _tensor(u, w, n: int) -> SparseVec:
    """u ⊗ w at flat indices p·n + q, from (index, coefficient) pairs."""
    return {p * n + q: cp * cq for p, cp in u for q, cq in w}


def check_yd_module(m: YDObject) -> CheckReport:
    rep = CheckReport("Yetter-Drinfeld module")
    rep.merge(check_module(m))
    rep.merge(check_comodule(m))
    rep.merge(check_yd_condition(m))
    return rep


def check_yd_algebra(a: YDObject) -> CheckReport:
    """Module algebra + H^op-comodule algebra + YD compatibility, itemised."""
    rep = CheckReport("Yetter-Drinfeld module algebra")
    rep.merge(check_module_algebra(a))
    rep.merge(check_comodule_algebra_op(a))
    rep.merge(check_yd_condition(a))
    return rep


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def h_opposite(a: YDObject) -> YDObject:
    """The H-opposite algebra: same action and coaction, x∘y = y₍₀₎(y₍₁₎·x)."""
    alg = a.alg
    images = a.images
    rho = a.rho
    mult = [
        [sparse_sum((c, alg.mul_sparse({b: Q(1)}, images[i][k])) for b, k, c in rho[j]) for j in range(alg.dim)]
        for i in range(alg.dim)
    ]
    mult = [[dense_vec(v, alg.dim) for v in row] for row in mult]
    new_alg = StructureAlgebra(alg.basis, alg.unit, mult, name=f"{alg.name}~" if alg.name else "opposite")
    return YDObject(a.hopf, alg.dim, new_alg, a.action, a.coaction)


def sharp_product(a: YDObject, b: YDObject) -> YDObject:
    """Braided product A # B: (x#y)(z#w) = x z₍₀₎ # (z₍₁₎·y) w, with the
    tensor-product action (``module_tensor``) and the H^op coaction
    ρ(x#y) = x₍₀₎#y₍₀₎ ⊗ y₍₁₎x₍₁₎. Flat index of x#y: x·dim(B) + y."""
    if a.hopf is not b.hopf:
        raise ValueError("sharp product requires the same Hopf algebra")
    h = a.hopf
    n = h.dim
    da, db = a.dim, b.dim
    dim = da * db
    basis = [f"{a.alg.basis[i]}#{b.alg.basis[j]}" for i in range(da) for j in range(db)]
    unit = dense_vec(_tensor(sparse_vec(a.alg.unit).items(), sparse_vec(b.alg.unit).items(), db), dim)
    basis_b = [{w: Q(1)} for w in range(db)]
    mult = [
        [
            dense_vec(sparse_sum(
                (c, _tensor(a.alg.mul_basis(x, z0), b.alg.mul_sparse(b.images[y][z1], basis_b[w]).items(), db))
                for z0, z1, c in a.rho[z]
            ), dim)
            for z in range(da)
            for w in range(db)
        ]
        for x in range(da)
        for y in range(db)
    ]
    alg = StructureAlgebra(basis, unit, mult, name=f"{a.alg.name}#{b.alg.name}")
    coaction = [
        dense_vec(sparse_sum(
            (cx * cy, _tensor([(ax * db + by, Q(1))], h.alg.mul_basis(ky, kx), n))
            for ax, kx, cx in a.rho[x]
            for by, ky, cy in b.rho[y]
        ), dim * n)
        for x in range(da)
        for y in range(db)
    ]
    return YDObject(h, dim, alg, module_tensor(a, b).action, coaction)


def end_yd(m: YDObject, variant: str = "plain") -> YDObject:
    """End(M) (variant "plain") or End(M)^op (variant "op") over an H-module M;
    the coaction is built only when M has one.

    plain:  (h·f)(x) = h₍₁₎·f(S(h₍₂₎)·x),
            ρ(f)(x) = f(x₍₀₎)₍₀₎ ⊗ S⁻¹(x₍₁₎) f(x₍₀₎)₍₁₎.
    op:     (h·f)(x) = h₍₂₎·f(S⁻¹(h₍₁₎)·x),
            ρ(f)(x) = f(x₍₀₎)₍₀₎ ⊗ f(x₍₀₎)₍₁₎ S(x₍₁₎), on the opposite algebra.
    """
    if variant not in ("plain", "op"):
        raise ValueError("variant must be 'plain' or 'op'")
    h = m.hopf
    n = h.dim
    d = m.dim
    alg = endomorphism_algebra(d)
    if variant == "op":
        alg = opposite_algebra(alg)

    action = []
    for i in range(n):
        terms = []
        for p, q, c in h.cop_sparse(i):
            if variant == "plain":
                left = m.act_matrix(h.alg.basis_vec(p))
                right = m.act_matrix(h.antipode.col(q))
            else:
                left = m.act_matrix(h.alg.basis_vec(q))
                right = m.act_matrix(h.antipode_inv.col(p))
            # f ↦ left ∘ f ∘ right is rightᵀ ⊗ left on the flat index q·d + p of E_pq
            terms.append((c, right.transpose(), left))
        action.append(kron_sum(terms, d * d, d * d))
    if m.coaction is None:
        return YDObject(h, d * d, alg, action)

    antipode = h.antipode_inv if variant == "plain" else h.antipode
    s_cols = [sparse_vec(antipode.col(k)) for k in range(n)]

    def h_part(k0: int, l1: int) -> SparseVec:
        """S⁻¹(e_k0)·e_l1 (plain) or e_l1·S(e_k0) (op)."""
        if variant == "plain":
            return h.alg.mul_sparse(s_cols[k0], {l1: Q(1)})
        return h.alg.mul_sparse({l1: Q(1)}, s_cols[k0])

    # row t·d + s is ρ(E_st) for the matrix unit E_st: e_t ↦ e_s; evaluated
    # at e_r, only the terms e_t ⊗ e_k0 of ρ(e_r) survive, giving
    # Σ e_b1 ⊗ h_part(k0, l1) over ρ(e_s), read off at (e_r* ⊗ e_b1) ⊗ e_q
    coaction = [zero_vec(d * d * n) for _ in range(d * d)]
    for r in range(d):
        for t, k0, c0 in m.rho[r]:
            for s in range(d):
                out = coaction[t * d + s]
                for b1, l1, c1 in m.rho[s]:
                    for q, cq in h_part(k0, l1).items():
                        out[(r * d + b1) * n + q] += c0 * c1 * cq
    return YDObject(h, d * d, alg, action, coaction)


# ---------------------------------------------------------------------------
# The F and G maps; Azumaya test
# ---------------------------------------------------------------------------


class FGContraction:
    """F and G of one YD algebra, evaluated on sparse vectors.

    F(x#y)(z) = Σ (Σ c·x z₍₀₎)(z₍₁₎·y), the inner sum over the terms of ρ(z)
    with a given z₍₁₎, and G(x#y)(z) = (Σ c·x₍₀₎(x₍₁₎·z))·y. Every product is
    taken by ``StructureAlgebra.mul_sparse``. Both forms follow from the
    definitions by bilinearity of the product alone: F keeps the bracketing
    (x z₍₀₎)(z₍₁₎·y) of its definition and collects terms in its left factor,
    and G moves the sum over ρ(x) into the left factor of its outer product.
    Nothing is reassociated, so the values equal the definitions' even for a
    non-associative multiplication.

    The y-free factors come from ``f_left`` and ``g_left``, so a caller that
    sweeps y computes them once per (x, z). Vectors acted on by H enter as
    their images [e_kᴴ·v for each H-basis index k] (``images_of``).
    """

    def __init__(self, a: YDObject):
        self.alg = a.alg
        self.hdim = a.hopf.dim
        self.rho = a.rho
        self.images = a.images

    def images_of(self, v: SparseVec) -> list[SparseVec]:
        return [sparse_sum((c, self.images[j][k]) for j, c in v.items()) for k in range(self.hdim)]

    def f_left(self, x: SparseVec, z: SparseVec) -> list[tuple[int, SparseVec]]:
        """Pairs (h, Σ c·x z₍₀₎ over the terms of ρ(z) with z₍₁₎ = e_h)."""
        by_h: dict[int, SparseVec] = {}
        for j, cz in z.items():
            for z0, z1, c in self.rho[j]:
                self.alg.mul_sparse(x, {z0: c * cz}, by_h.setdefault(z1, {}))
        return list(by_h.items())

    def f(self, left: list[tuple[int, SparseVec]], y_images: list[SparseVec]) -> SparseVec:
        """F(x#y)(z) from ``f_left(x, z)`` and the images of y."""
        out: SparseVec = {}
        for h, u in left:
            self.alg.mul_sparse(u, y_images[h], out)
        return out

    def g_left(self, x: SparseVec, z_images: list[SparseVec]) -> SparseVec:
        """Σ c·x₍₀₎(x₍₁₎·z), the left factor of G(x#y)(z) = (…)·y."""
        out: SparseVec = {}
        for i, cx in x.items():
            for x0, x1, c in self.rho[i]:
                self.alg.mul_sparse({x0: c * cx}, z_images[x1], out)
        return out


def fg_maps(a: YDObject) -> tuple[Matrix, Matrix]:
    """Matrices of F: A#Ā → End(A), F(x#y)(z) = x z₍₀₎ (z₍₁₎·y)
    and G: Ā#A → End(A)^op, G(x#y)(z) = x₍₀₎(x₍₁₎·z) y.

    Columns run over the #-basis x⊗y (left-major); rows over the matrix
    units of End(A) in dual-major order, matching endomorphism_algebra.

    Built by ``FGContraction`` on the sparse structure constants, action
    columns and coaction: F(x#y)(z) = Σ c·(x z₍₀₎)(z₍₁₎·y), bracketed as
    above, and G(x#y)(z) = (Σ c·x₍₀₎(x₍₁₎·z))·y, whose inner sum depends on
    (x, z) only. Both use bilinearity alone; no product is reassociated.
    """
    alg = a.alg
    d = alg.dim
    fg = FGContraction(a)
    basis = [{j: Q(1)} for j in range(d)]
    # int zeros: Matrix() coerces every entry, and ints convert fastest
    f = [[0] * (d * d) for _ in range(d * d)]
    g = [[0] * (d * d) for _ in range(d * d)]
    for x in range(d):
        for z in range(d):
            f_left = fg.f_left(basis[x], basis[z])
            g_left = fg.g_left(basis[x], fg.images[z])
            frows = f[z * d:(z + 1) * d]
            grows = g[z * d:(z + 1) * d]
            for y in range(d):
                col = x * d + y
                for p, v in fg.f(f_left, fg.images[y]).items():
                    frows[p][col] = v
                for p, v in alg.mul_sparse(g_left, basis[y]).items():
                    grows[p][col] = v
    return Matrix(f), Matrix(g)


def is_h_azumaya(a: YDObject) -> bool:
    """A is H-Azumaya iff both F and G are bijective."""
    f, g = fg_maps(a)
    return mat_det(f) != 0 and mat_det(g) != 0


# ---------------------------------------------------------------------------
# Induced structures from (co)quasitriangular data
# ---------------------------------------------------------------------------


def induced_coaction(a: YDObject, r: QTStructure) -> YDObject:
    """Equip an H-module (algebra) with ρ(x) = (R⁽²⁾·x) ⊗ R⁽¹⁾, replacing
    any coaction it has."""
    n = a.hopf.dim
    pairs = r.pairs().items()
    coaction = []
    for j in range(a.dim):
        out = zero_vec(a.dim * n)
        for (i, k), c in pairs:
            for p, v in a.images[j][k].items():
                out[p * n + i] += c * v
        coaction.append(out)
    return YDObject(a.hopf, a.dim, a.alg, a.action, coaction)


def induced_action(a: YDObject, r: CoQTStructure) -> YDObject:
    """Equip an H-comodule (algebra) with h·x = x₍₀₎ r(h ⊗ x₍₁₎), replacing
    any action it has."""
    h = a.hopf
    n = h.dim
    action = []
    for i in range(n):
        rows = [[Q(0)] * a.dim for _ in range(a.dim)]
        for j in range(a.dim):
            for b, k, c in a.rho[j]:
                rows[b][j] += c * r.form.data[i][k]
        action.append(Matrix(rows))
    return YDObject(h, a.dim, a.alg, action, a.coaction)


# ---------------------------------------------------------------------------
# Braidings
# ---------------------------------------------------------------------------


def braiding_psi(v: YDObject, w: YDObject, r: QTStructure) -> Matrix:
    """ψ: V⊗W → W⊗V, v⊗w ↦ R⁽²⁾·w ⊗ R⁽¹⁾·v (left-major flat indices):
    Σ R⁽²⁾ ⊗ R⁽¹⁾ acting on W⊗V, after the plain flip V⊗W → W⊗V."""
    dv, dw = v.dim, w.dim
    acc = kron_sum(((c, w.action[j], v.action[i]) for (i, j), c in r.pairs().items()), dv * dw, dv * dw)
    # column x·dw + y of ψ is column y·dv + x of acc: the flip as a permutation
    return Matrix([[row[y * dv + x] for x in range(dv) for y in range(dw)] for row in acc.data])


def graded_flip(v_par: Sequence[int], w_par: Sequence[int]) -> Matrix:
    """ψ₀: V⊗W → W⊗V, v⊗w ↦ (−1)^{|v||w|} w⊗v for homogeneous bases."""
    dv, dw = len(v_par), len(w_par)
    out = [[Q(0)] * (dv * dw) for _ in range(dw * dv)]
    for x in range(dv):
        for y in range(dw):
            sign = -1 if v_par[x] and w_par[y] else 1
            out[y * dv + x][x * dw + y] = Q(sign)
    return Matrix(out)


# ---------------------------------------------------------------------------
# Gradings
# ---------------------------------------------------------------------------


@dataclass
class GradingPair:
    action_parity: tuple[int, ...]
    coaction_parity: tuple[int, ...]

    @property
    def equal(self) -> bool:
        return self.action_parity == self.coaction_parity


def action_grading(obj: YDObject, g_index: int) -> tuple[int, ...]:
    """Parity per basis vector from the grouplike action: |a| = 1 iff g·a = −a."""
    parity = []
    for j in range(obj.dim):
        col = obj.images[j][g_index]
        if col == {j: 1}:
            parity.append(0)
        elif col == {j: -1}:
            parity.append(1)
        else:
            raise GradingError(f"basis vector {j} is not a ±1 eigenvector of the grouplike action")
    return tuple(parity)


def coaction_grading(obj: YDObject, pi_keep: Sequence[int]) -> tuple[int, ...]:
    """Parity from (id ⊗ π)ρ, with π the projection onto the grouplike part.

    pi_keep = (index of 1, index of the grouplike); deg(a) = 0 or 1
    according to (id⊗π)ρ(a) = a⊗1 or a⊗g, anything else is an error.
    """
    one_idx, g_idx = pi_keep
    dim = obj.dim
    parity = []
    for j in range(dim):
        kept: dict[int, dict[int, Fraction]] = {one_idx: {}, g_idx: {}}
        for a, k, c in obj.rho[j]:
            if k in kept:
                kept[k][a] = kept[k].get(a, Q(0)) + c
        proj_one = {a: c for a, c in kept[one_idx].items() if c}
        proj_g = {a: c for a, c in kept[g_idx].items() if c}
        if proj_one == {j: Q(1)} and not proj_g:
            parity.append(0)
        elif proj_g == {j: Q(1)} and not proj_one:
            parity.append(1)
        else:
            raise GradingError(f"(id⊗π)ρ is not e_{j}⊗1 or e_{j}⊗g at index {j}")
    return tuple(parity)


def gradings(a: YDObject) -> GradingPair:
    """Both natural ℤ₂-gradings of a YD object over H₄ or E(2)."""
    g_index = grouplike_index(a.hopf)
    if g_index is None:
        raise ValueError("Hopf algebra metadata lacks a grouplike generator index")
    return GradingPair(action_grading(a, g_index), coaction_grading(a, a.hopf.meta["pi_keep"]))


# ---------------------------------------------------------------------------
# Centralizers
# ---------------------------------------------------------------------------


def yd_centralizers(a: YDObject, sub_basis: list[list[Fraction]]) -> tuple[list, list]:
    """Left and right centralizers of a YD submodule algebra B ⊆ A.

    C^l = {x : b·x = x₍₀₎(x₍₁₎·b) ∀b∈B}, C^r = {x : x·b = b₍₀₎(b₍₁₎·x) ∀b∈B}.
    """
    alg = a.alg
    n = a.hopf.dim
    rho = a.rho
    for b in sub_basis:
        for i in range(n):
            if not in_span(sub_basis, a.action[i].apply(b)):
                raise ValueError("subspace not closed under the H-action")
        components = [zero_vec(alg.dim) for _ in range(n)]  # ρ(b) = Σ_k components[k] ⊗ e_k
        for j, c in enumerate(b):
            if c:
                for p, k, v in rho[j]:
                    components[k][p] += c * v
        for comp in components:
            if not in_span(sub_basis, comp):
                raise ValueError("subspace not closed under the H-coaction")

    zero = zero_vec(alg.dim)
    left_eqs = []
    right_eqs = []
    for b in sub_basis:
        lcols = []
        rcols = []
        for j in range(alg.dim):
            ej = alg.basis_vec(j)
            twisted = zero_vec(alg.dim)
            for a0, a1, c in rho[j]:
                acted = a.action[a1].apply(b)
                for p, v in enumerate(alg.mul_vec(alg.basis_vec(a0), acted)):
                    twisted[p] += c * v
            lcols.append([x - y for x, y in zip(alg.mul_vec(b, ej), twisted)])
            tw2 = zero_vec(alg.dim)
            for j2, cb in enumerate(b):
                if cb:
                    for b0, b1, c in rho[j2]:
                        acted = a.action[b1].apply(ej)
                        for p, v in enumerate(alg.mul_vec(alg.basis_vec(b0), acted)):
                            tw2[p] += cb * c * v
            rcols.append([x - y for x, y in zip(alg.mul_vec(ej, b), tw2)])
        left_eqs.append((lcols, zero))
        right_eqs.append((rcols, zero))
    return _solve_affine(left_eqs, alg.dim).kernel, _solve_affine(right_eqs, alg.dim).kernel


# ---------------------------------------------------------------------------
# Inner and strongly inner action solvers
# ---------------------------------------------------------------------------


def inner_witness(a: YDObject, x_index: int, c_index: int) -> list[Fraction] | None:
    """Solve x·z = v(c·z) − zv for an odd element v; None when inconsistent.

    ``a`` needs an action and an action-grading; any odd solution is
    accepted (witnesses are unique only up to graded-center elements).
    """
    alg = a.alg
    parity = action_grading(a, c_index)
    odd = [j for j in range(alg.dim) if parity[j] == 1]
    equations = []
    for z in range(alg.dim):
        ez = alg.basis_vec(z)
        cz = a.action[c_index].apply(ez)
        cols = [[x - y for x, y in zip(alg.mul_vec(vj, cz), alg.mul_vec(ez, vj))] for vj in map(alg.basis_vec, odd)]
        equations.append((cols, a.action[x_index].apply(ez)))
    sol = _solve_affine(equations, len(odd))
    if sol.particular is None:
        return None
    out = zero_vec(alg.dim)
    for c, j in enumerate(odd):
        out[j] = sol.particular[c]
    return out


def conjugation_implementer(a: YDObject, g_index: int, rng=None) -> list[Fraction] | None:
    """Find invertible u with u·z = (g·z)·u for all z, or None.

    The solution space is computed exactly; an invertible representative is
    searched among basis vectors, pairwise sums and a few deterministic
    pseudo-random combinations.
    """
    alg = a.alg
    equations = []
    for z in range(alg.dim):
        ez = alg.basis_vec(z)
        gz = a.action[g_index].apply(ez)
        cols = []
        for j in range(alg.dim):
            uj = alg.basis_vec(j)
            cols.append([x - y for x, y in zip(alg.mul_vec(uj, ez), alg.mul_vec(gz, uj))])
        equations.append((cols, zero_vec(alg.dim)))
    space = _solve_affine(equations, alg.dim).kernel
    if not space:
        return None
    candidates = list(space)
    for i in range(len(space)):
        for j in range(i + 1, len(space)):
            candidates.append([x + y for x, y in zip(space[i], space[j])])
    import random

    prng = rng or random.Random(20259)
    for _ in range(20):
        coeffs = [Q(prng.randint(-5, 5)) for _ in space]
        candidates.append(
            [sum((c * v[k] for c, v in zip(coeffs, space)), Q(0)) for k in range(alg.dim)]
        )
    for u in candidates:
        if not is_zero_vec(u) and alg.is_invertible(u):
            return u
    return None


def normalized_implementer(a: YDObject, g_index: int) -> list[Fraction] | None:
    """Invertible u with u·z·u⁻¹ = g·z and u² = 1, rationally normalized."""
    u = conjugation_implementer(a, g_index)
    if u is None:
        return None
    alg = a.alg
    sq = alg.mul_vec(u, u)
    lam = alg.scalar_part(sq)
    if lam is None:
        raise NoRationalNormalization("u² is not scalar")
    root = rational_is_square(lam)
    if root is None:
        raise NoRationalNormalization(f"u² = {lam} has no rational square root")
    return [x / root for x in u]


def _solve_affine(equations, unknown_dim: int):
    """Solve a list of (columns, rhs-vector) linear conditions on one unknown.

    cols[j] is the image of the j-th unknown coordinate; the rows are taken
    in equation order, then component order, which fixes the particular
    solution and kernel basis ``solve_sparse`` returns."""
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for cols, target in equations:
        for k in range(len(target)):
            rows.append({j: cols[j][k] for j in range(unknown_dim) if cols[j][k]})
            rhs.append(target[k])
    return solve_sparse(rows, rhs, unknown_dim)


def strongly_inner_witness_h4(a: YDObject):
    """Witness (u, w, β) for g·z = uzu⁻¹, h·z = w(g·z) − zw, u²=1, wu+uw=0, w²=β.

    Returns None when the defining linear systems are inconsistent. β is the
    scalar w² and is the (k,+)-component of the class; a non-scalar w² is an
    error because this invariant is then undefined.
    """
    h4 = a.hopf
    g_index, h_index = h4.meta["g"], h4.meta["h"]
    u = normalized_implementer(a, g_index)
    if u is None:
        return None
    alg = a.alg
    equations = []
    for z in range(alg.dim):
        ez = alg.basis_vec(z)
        gz = a.action[g_index].apply(ez)
        cols = [
            [x - y for x, y in zip(alg.mul_vec(alg.basis_vec(j), gz), alg.mul_vec(ez, alg.basis_vec(j)))]
            for j in range(alg.dim)
        ]
        equations.append((cols, a.action[h_index].apply(ez)))
    anti_cols = [
        [
            x + y
            for x, y in zip(alg.mul_vec(alg.basis_vec(j), u), alg.mul_vec(u, alg.basis_vec(j)))
        ]
        for j in range(alg.dim)
    ]
    equations.append((anti_cols, zero_vec(alg.dim)))
    sol = _solve_affine(equations, alg.dim)
    if sol.particular is None:
        return None
    w = sol.particular
    beta = alg.scalar_part(alg.mul_vec(w, w))
    if beta is None:
        raise ValueError("w² is not scalar; the (k,+)-invariant is undefined here")
    return u, w, beta


@dataclass
class StrongInnerE2Result:
    witness: tuple | None
    branch_failures: list[str] = field(default_factory=list)

    @property
    def strongly_inner(self) -> bool:
        return self.witness is not None


def strongly_inner_witness_e2(a: YDObject) -> StrongInnerE2Result:
    """Exhaustive branch analysis for a strongly inner E(2)-action.

    A convolution-invertible algebra map p: E(2) → A giving the action
    would satisfy, with u' = p(c), w' = p(x₁), W' = p(cx₂):
        c·f  = u' f u'⁻¹,
        x₁·f = w' f u' + f u' w',
        (cx₂)·f = W' f − u' f u' W'.
    Centrality forces u' = ±u; both sign branches are solved linearly and
    then all E(2) relations are checked on the candidate generators.
    """
    e2 = a.hopf
    c_index = e2.meta["c"]
    x1_index = e2.meta["x1"]
    x2_index = e2.meta["x2"]
    alg = a.alg
    u0 = normalized_implementer(a, c_index)
    if u0 is None:
        return StrongInnerE2Result(None, ["c-action is not implemented by conjugation"])
    cx2 = [a.action[c_index] @ a.action[x2_index]]  # action of cx₂ = c·(x₂·-)
    failures = []
    for lam in (Q(1), Q(-1)):
        u = [lam * x for x in u0]
        label = f"branch u' = {'+' if lam > 0 else '-'}u"

        def anti(vj):
            return [x + y for x, y in zip(alg.mul_vec(vj, u), alg.mul_vec(u, vj))]

        # x₁·z = w'zu + zuw', plus u'w' + w'u' = 0
        eqs = []
        for z in range(alg.dim):
            ez = alg.basis_vec(z)
            ezu = alg.mul_vec(ez, u)
            cols = [
                [
                    x + y
                    for x, y in zip(
                        alg.mul_vec(alg.basis_vec(j), ezu), alg.mul_vec(ezu, alg.basis_vec(j))
                    )
                ]
                for j in range(alg.dim)
            ]
            eqs.append((cols, a.action[x1_index].apply(ez)))
        eqs.append(([anti(alg.basis_vec(j)) for j in range(alg.dim)], zero_vec(alg.dim)))
        sol_w = _solve_affine(eqs, alg.dim)
        if sol_w.particular is None:
            failures.append(f"{label}: no solution for p(x₁)")
            continue
        w = sol_w.particular

        # (cx₂)·z = W'z − uzuW', plus u'W' + W'u' = 0
        eqs = []
        for z in range(alg.dim):
            ez = alg.basis_vec(z)
            uzu = alg.mul_vec(alg.mul_vec(u, ez), u)
            cols = [
                [
                    x - y
                    for x, y in zip(
                        alg.mul_vec(alg.basis_vec(j), ez), alg.mul_vec(uzu, alg.basis_vec(j))
                    )
                ]
                for j in range(alg.dim)
            ]
            eqs.append((cols, cx2[0].apply(ez)))
        eqs.append(([anti(alg.basis_vec(j)) for j in range(alg.dim)], zero_vec(alg.dim)))
        sol_big = _solve_affine(eqs, alg.dim)
        if sol_big.particular is None:
            failures.append(f"{label}: no solution for p(cx₂)")
            continue
        bigw = sol_big.particular

        px2 = alg.mul_vec(u, bigw)  # p(x₂) = p(c)p(cx₂)
        relation_checks = [
            ("p(x₁)² = 0", alg.mul_vec(w, w)),
            ("p(x₂)² = 0", alg.mul_vec(px2, px2)),
            (
                "p(x₁)p(x₂) + p(x₂)p(x₁) = 0",
                [x + y for x, y in zip(alg.mul_vec(w, px2), alg.mul_vec(px2, w))],
            ),
            (
                "(cx₂)x₁ − x₁(cx₂) = 0",
                [x - y for x, y in zip(alg.mul_vec(bigw, w), alg.mul_vec(w, bigw))],
            ),
        ]
        bad = [name for name, valvec in relation_checks if not is_zero_vec(valvec)]
        if bad:
            failures.append(f"{label}: relation(s) not respected: {', '.join(bad)}")
            continue
        return StrongInnerE2Result((u, w, bigw), failures)
    return StrongInnerE2Result(None, failures)


# ---------------------------------------------------------------------------
# Conversion between YD structures over H₄ and modules over D(H₄)
# ---------------------------------------------------------------------------


def yd_to_double(a: YDObject, double: HopfAlgebra) -> YDObject:
    """Make a YD H₄-algebra into a D(H₄)-module algebra.

    1⋈l acts as l; (f⋈1)·m = m₍₀₎ f(m₍₁₎); general basis elements are the
    composites (f⋈1)(1⋈l).
    """
    n = a.hopf.dim
    pairing = []
    for i in range(n):
        rows = [[Q(0)] * a.dim for _ in range(a.dim)]
        for b in range(a.dim):
            for p, k, c in a.rho[b]:
                if k == i:
                    rows[p][b] += c
        pairing.append(Matrix(rows))
    action = []
    for i in range(n):
        for j in range(n):
            action.append(pairing[i] @ a.action[j])
    return YDObject(double, a.dim, a.alg, action)


def double_to_yd(a: YDObject, h: HopfAlgebra) -> YDObject:
    """Inverse conversion: restrict to 1⋈H₄ and rebuild the coaction by
    pairing with the dual basis, ρ(m) = Σᵢ ((e_i*⋈1)·m) ⊗ e_i.

    1⋈e_j = Σ_i ε(e_i)(e_i*⋈e_j), since the counit of H is the unit of H*.
    """
    n = h.dim
    action = [a.act_matrix(bowtie_vec(n, h.counit, h.alg.basis_vec(j))) for j in range(n)]
    dual = [a.act_matrix(bowtie_vec(n, h.alg.basis_vec(i), h.alg.unit)) for i in range(n)]
    coaction = []
    for b in range(a.dim):
        out = zero_vec(a.dim * n)
        for i in range(n):
            for p, v in enumerate(dual[i].col(b)):
                if v:
                    out[p * n + i] += v
        coaction.append(out)
    return YDObject(h, a.dim, a.alg, action, coaction)


def module_tensor(m: YDObject, w: YDObject) -> YDObject:
    """Tensor product of two H-modules via Δ (left factor major)."""
    h = m.hopf
    dim = m.dim * w.dim
    action = [
        kron_sum(((c, m.action[p], w.action[q]) for p, q, c in h.cop_sparse(i)), dim, dim)
        for i in range(h.dim)
    ]
    return YDObject(h, dim, action=action)
