"""Yetter-Drinfeld modules and module algebras.

Objects over a fixed Hopf algebra H carry a left H-action (one matrix per
H-basis element) and/or a right H-coaction. Coactions are stored as one
dense vector per carrier basis element: ``coaction[j][a·dim(H) + k]`` is
the coefficient of e_a ⊗ e_k in ρ(e_j).

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
from fractions import Fraction
from typing import Sequence

from .algebra import CheckReport, StructureAlgebra, opposite_algebra
from .hopf import CoQTStructure, HopfAlgebra, QTStructure
from .linalg import (
    Matrix,
    SparseVec,
    dense_vec,
    in_span,
    is_zero_vec,
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
# Carriers
# ---------------------------------------------------------------------------


@dataclass
class Module:
    """Left H-module: action[i] is the matrix of e_iᴴ acting on the carrier."""

    hopf: HopfAlgebra
    dim: int
    action: list[Matrix]

    def act_matrix(self, hvec: Sequence[Fraction]) -> Matrix:
        out = Matrix.zero(self.dim, self.dim)
        for i, c in enumerate(hvec):
            if c:
                out = out + self.action[i] * c
        return out


@dataclass
class YDModule(Module):
    coaction: list[list[Fraction]]


@dataclass
class ModuleAlgebra:
    hopf: HopfAlgebra
    alg: StructureAlgebra
    action: list[Matrix]

    @property
    def dim(self) -> int:
        return self.alg.dim

    def module(self) -> Module:
        return Module(self.hopf, self.dim, self.action)


@dataclass
class ComoduleAlgebra:
    hopf: HopfAlgebra
    alg: StructureAlgebra
    coaction: list[list[Fraction]]

    @property
    def dim(self) -> int:
        return self.alg.dim


@dataclass
class YDAlgebra:
    hopf: HopfAlgebra
    alg: StructureAlgebra
    action: list[Matrix]
    coaction: list[list[Fraction]]

    @property
    def dim(self) -> int:
        return self.alg.dim

    def module(self) -> Module:
        return Module(self.hopf, self.dim, self.action)

    def yd_module(self) -> YDModule:
        return YDModule(self.hopf, self.dim, self.action, self.coaction)

    def module_algebra(self) -> ModuleAlgebra:
        return ModuleAlgebra(self.hopf, self.alg, self.action)

    def comodule_algebra(self) -> ComoduleAlgebra:
        return ComoduleAlgebra(self.hopf, self.alg, self.coaction)


def coaction_sparse(coaction: list[list[Fraction]], hdim: int, j: int):
    """ρ(e_j) as sparse (carrier index, H index, coeff) triples."""
    return tuple(
        (k // hdim, k % hdim, c) for k, c in enumerate(coaction[j]) if c
    )


def action_images(a) -> list[list[SparseVec]]:
    """images[j][k] = e_kᴴ · e_j as a sparse vector, from the action matrices."""
    cols = [[sparse_vec(m.col(j)) for j in range(a.dim)] for m in a.action]
    return [[col[j] for col in cols] for j in range(a.dim)]


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------


def check_module(m: Module) -> CheckReport:
    rep = CheckReport(f"H-module over {m.hopf.name}")
    h = m.hopf
    rep.require(m.act_matrix(h.alg.unit) == Matrix.identity(m.dim), "unit of H does not act as id")
    images = action_images(m)
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


def check_module_algebra(a: ModuleAlgebra | YDAlgebra) -> CheckReport:
    """Left H-module algebra: h·(xy) = (h₍₁₎·x)(h₍₂₎·y), h·1 = ε(h)1."""
    rep = CheckReport(f"module algebra over {a.hopf.name}")
    rep.merge(check_module(a.module() if hasattr(a, "module") else a))
    h = a.hopf
    alg = a.alg
    images = action_images(a)
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


def check_comodule(m: YDModule | ComoduleAlgebra | YDAlgebra) -> CheckReport:
    rep = CheckReport(f"H-comodule over {m.hopf.name}")
    h = m.hopf
    n = h.dim
    dim = m.dim
    for j in range(dim):
        sp = coaction_sparse(m.coaction, n, j)
        ej = zero_vec(dim)
        for a, k, c in sp:
            ej[a] += c * h.counit[k]
        want = zero_vec(dim)
        want[j] = Q(1)
        rep.require(ej == want, f"(id⊗ε)ρ fails at index {j}")
        lhs: dict[tuple[int, int, int], Fraction] = {}
        rhs: dict[tuple[int, int, int], Fraction] = {}
        for a, k, c in sp:
            for b, l, d in coaction_sparse(m.coaction, n, a):
                key = (b, l, k)
                lhs[key] = lhs.get(key, Q(0)) + c * d
            for p, q, d in h.cop_sparse(k):
                key = (a, p, q)
                rhs[key] = rhs.get(key, Q(0)) + c * d
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        rep.require(lhs == rhs, f"coassociativity of ρ fails at index {j}")
    return rep


def check_comodule_algebra_op(a: ComoduleAlgebra | YDAlgebra) -> CheckReport:
    """Right H^op-comodule algebra: ρ(xy) = x₍₀₎y₍₀₎ ⊗ y₍₁₎x₍₁₎, ρ(1) = 1⊗1."""
    rep = CheckReport(f"H^op-comodule algebra over {a.hopf.name}")
    rep.merge(check_comodule(a))
    h = a.hopf
    alg = a.alg
    n = h.dim
    rho_one = zero_vec(alg.dim * n)
    for j, c in enumerate(alg.unit):
        if c:
            for k, v in enumerate(a.coaction[j]):
                rho_one[k] += c * v
    want = zero_vec(alg.dim * n)
    for i, u in enumerate(alg.unit):
        for k, e in enumerate(h.alg.unit):
            if u * e:
                want[i * n + k] = u * e
    rep.require(rho_one == want, "ρ(1) ≠ 1⊗1")
    rho = [coaction_sparse(a.coaction, n, j) for j in range(alg.dim)]
    rho_flat = [sparse_vec(row) for row in a.coaction]
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


def check_yd_condition(m: YDModule | YDAlgebra) -> CheckReport:
    """ρ(l·b) = l₍₂₎·b₍₀₎ ⊗ l₍₃₎ b₍₁₎ S⁻¹(l₍₁₎) on all basis pairs."""
    rep = CheckReport(f"Yetter-Drinfeld condition over {m.hopf.name}")
    h = m.hopf
    n = h.dim
    dim = m.dim
    images = action_images(m)
    rho = [coaction_sparse(m.coaction, n, j) for j in range(dim)]
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


def _unit_vec(n: int, i: int) -> list[Fraction]:
    v = zero_vec(n)
    v[i] = Q(1)
    return v


def check_yd_module(m: YDModule) -> CheckReport:
    rep = CheckReport("Yetter-Drinfeld module")
    rep.merge(check_module(m))
    rep.merge(check_comodule(m))
    rep.merge(check_yd_condition(m))
    return rep


def check_yd_algebra(a: YDAlgebra) -> CheckReport:
    """Module algebra + H^op-comodule algebra + YD compatibility, itemised."""
    rep = CheckReport("Yetter-Drinfeld module algebra")
    rep.merge(check_module_algebra(a))
    rep.merge(check_comodule_algebra_op(a))
    rep.merge(check_yd_condition(a))
    return rep


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def h_opposite(a: YDAlgebra) -> YDAlgebra:
    """The H-opposite algebra: same action and coaction, x∘y = y₍₀₎(y₍₁₎·x)."""
    alg = a.alg
    n = a.hopf.dim
    images = action_images(a)
    rho = [coaction_sparse(a.coaction, n, j) for j in range(alg.dim)]
    mult = [
        [sparse_sum((c, alg.mul_sparse({b: Q(1)}, images[i][k])) for b, k, c in rho[j]) for j in range(alg.dim)]
        for i in range(alg.dim)
    ]
    mult = [[dense_vec(v, alg.dim) for v in row] for row in mult]
    new_alg = StructureAlgebra(alg.basis, alg.unit, mult, name=f"{alg.name}~" if alg.name else "opposite")
    return YDAlgebra(a.hopf, new_alg, a.action, a.coaction)


def sharp_product(a: YDAlgebra, b: YDAlgebra) -> YDAlgebra:
    """Braided product A # B: (x#y)(z#w) = x z₍₀₎ # (z₍₁₎·y) w."""
    if a.hopf is not b.hopf:
        raise ValueError("sharp product requires the same Hopf algebra")
    h = a.hopf
    n = h.dim
    da, db = a.dim, b.dim
    dim = da * db

    def flat(i: int, j: int) -> int:
        return i * db + j

    basis = [f"{a.alg.basis[i]}#{b.alg.basis[j]}" for i in range(da) for j in range(db)]
    unit = zero_vec(dim)
    for i, u in enumerate(a.alg.unit):
        if u:
            for j, w in enumerate(b.alg.unit):
                if w:
                    unit[flat(i, j)] = u * w

    mult = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    for x in range(da):
        for y in range(db):
            row = flat(x, y)
            for z in range(da):
                spz = coaction_sparse(a.coaction, n, z)
                for w in range(db):
                    out = mult[row][flat(z, w)]
                    for z0, z1, c in spz:
                        apart = a.alg.mul_vec(a.alg.basis_vec(x), a.alg.basis_vec(z0))
                        acted = b.action[z1].apply(b.alg.basis_vec(y))
                        bpart = b.alg.mul_vec(acted, b.alg.basis_vec(w))
                        for p, cp in enumerate(apart):
                            if cp:
                                for q, cq in enumerate(bpart):
                                    if cq:
                                        out[flat(p, q)] += c * cp * cq
    alg = StructureAlgebra(basis, unit, mult, name=f"{a.alg.name}#{b.alg.name}")

    action = []
    for i in range(n):
        m = Matrix.zero(dim, dim)
        acc = [[Q(0)] * dim for _ in range(dim)]
        for p, q, c in h.cop_sparse(i):
            ma = a.action[p]
            mb = b.action[q]
            for x in range(da):
                for xx in range(da):
                    va = ma.data[xx][x]
                    if not va:
                        continue
                    for y in range(db):
                        col = flat(x, y)
                        for yy in range(db):
                            vb = mb.data[yy][y]
                            if vb:
                                acc[flat(xx, yy)][col] += c * va * vb
        action.append(Matrix(acc))

    coaction = []
    for x in range(da):
        spx = coaction_sparse(a.coaction, n, x)
        for y in range(db):
            spy = coaction_sparse(b.coaction, n, y)
            row = zero_vec(dim * n)
            for ax, kx, cx in spx:
                for by, ky, cy in spy:
                    hp = h.alg.mul_vec(h.alg.basis_vec(ky), h.alg.basis_vec(kx))
                    for q, cq in enumerate(hp):
                        if cq:
                            row[flat(ax, by) * n + q] += cx * cy * cq
            coaction.append(row)
    return YDAlgebra(h, alg, action, coaction)


def end_yd(m: YDModule, variant: str = "plain") -> YDAlgebra:
    """End(M) (variant "plain") or End(M)^op (variant "op") as a YD algebra.

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
    from .algebra import endomorphism_algebra

    alg = endomorphism_algebra(d)
    if variant == "op":
        alg = opposite_algebra(alg)
    action = _end_action(m, variant)

    coaction = []
    for t in range(d):
        for s in range(d):
            # f = E_st (e_t ↦ e_s), appended at its flat End index t*d + s
            out = zero_vec(d * d * n)
            for r in range(d):
                # evaluate ρ(f)(e_r) ∈ M ⊗ H, then read off End ⊗ H coefficients
                for a0, k0, c0 in coaction_sparse(m.coaction, n, r):
                    if a0 != t:
                        continue
                    fv = s  # f(e_{a0}) = e_s
                    for b1, l1, c1 in coaction_sparse(m.coaction, n, fv):
                        if variant == "plain":
                            hp = h.alg.mul_vec(h.antipode_inv.col(k0), h.alg.basis_vec(l1))
                        else:
                            hp = h.alg.mul_vec(h.alg.basis_vec(l1), h.antipode.col(k0))
                        for q, cq in enumerate(hp):
                            if cq:
                                # contributes (e_r* ⊗ e_{b1}) ⊗ e_q
                                out[(r * d + b1) * n + q] += c0 * c1 * cq
            coaction.append(out)
    return YDAlgebra(h, alg, action, coaction)


def end_module_action(m: Module) -> ModuleAlgebra:
    """End(M) with only the module-algebra structure (h·f) = h₍₁₎·f(S(h₍₂₎)·)."""
    from .algebra import endomorphism_algebra

    return ModuleAlgebra(m.hopf, endomorphism_algebra(m.dim), _end_action(m, "plain"))


def _end_action(m: Module, variant: str) -> list[Matrix]:
    """The action of H on End(M) of ``end_yd``, one matrix per H-basis element."""
    h = m.hopf
    d = m.dim
    action = []
    for i in range(h.dim):
        rows = [[Q(0)] * (d * d) for _ in range(d * d)]
        for p, q, c in h.cop_sparse(i):
            if variant == "plain":
                left = m.act_matrix(h.alg.basis_vec(p))
                right = m.act_matrix(h.antipode.col(q))
            else:
                left = m.act_matrix(h.alg.basis_vec(q))
                right = m.act_matrix(h.antipode_inv.col(p))
            # f ↦ left ∘ f ∘ right, expanded on matrix units
            for s in range(d):
                for t in range(d):
                    f = Matrix.zero(d, d)
                    f.data[s][t] = Q(1)
                    img = left @ f @ right
                    col = t * d + s
                    for pp in range(d):
                        for qq in range(d):
                            v = img.data[pp][qq]
                            if v:
                                rows[qq * d + pp][col] += c * v
        action.append(Matrix(rows))
    return action


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

    def __init__(self, a: YDAlgebra):
        self.alg = a.alg
        self.hdim = a.hopf.dim
        self.rho = [coaction_sparse(a.coaction, self.hdim, j) for j in range(a.dim)]
        self.images = action_images(a)

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


def fg_maps(a: YDAlgebra) -> tuple[Matrix, Matrix]:
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


def is_h_azumaya(a: YDAlgebra) -> bool:
    """A is H-Azumaya iff both F and G are bijective."""
    f, g = fg_maps(a)
    return mat_det(f) != 0 and mat_det(g) != 0


# ---------------------------------------------------------------------------
# Induced structures from (co)quasitriangular data
# ---------------------------------------------------------------------------


def induced_coaction(a: ModuleAlgebra | YDAlgebra, r: QTStructure) -> YDAlgebra:
    """Equip a module algebra with ρ(x) = (R⁽²⁾·x) ⊗ R⁽¹⁾."""
    return YDAlgebra(a.hopf, a.alg, a.action, _induced_coaction_rows(a, r))


def induced_module_coaction(m: Module, r: QTStructure) -> YDModule:
    return YDModule(m.hopf, m.dim, m.action, _induced_coaction_rows(m, r))


def _induced_coaction_rows(m, r: QTStructure) -> list[list[Fraction]]:
    n = m.hopf.dim
    coaction = []
    for j in range(m.dim):
        out = zero_vec(m.dim * n)
        for (i, k), c in r.pairs().items():
            acted = m.action[k].apply(_unit_vec(m.dim, j))
            for p, v in enumerate(acted):
                if v:
                    out[p * n + i] += c * v
        coaction.append(out)
    return coaction


def induced_action(a: ComoduleAlgebra | YDAlgebra, r: CoQTStructure) -> YDAlgebra:
    """Equip a comodule algebra with h·x = x₍₀₎ r(h ⊗ x₍₁₎)."""
    h = a.hopf
    n = h.dim
    action = []
    for i in range(n):
        rows = [[Q(0)] * a.dim for _ in range(a.dim)]
        for j in range(a.dim):
            for b, k, c in coaction_sparse(a.coaction, n, j):
                rows[b][j] += c * r.form.data[i][k]
        action.append(Matrix(rows))
    return YDAlgebra(h, a.alg, action, a.coaction)


# ---------------------------------------------------------------------------
# Braidings
# ---------------------------------------------------------------------------


def braiding_psi(v: Module, w: Module, r: QTStructure) -> Matrix:
    """ψ: V⊗W → W⊗V, v⊗w ↦ R⁽²⁾·w ⊗ R⁽¹⁾·v (left-major flat indices)."""
    dv, dw = v.dim, w.dim
    out = [[Q(0)] * (dv * dw) for _ in range(dw * dv)]
    for (i, j), c in r.pairs().items():
        mv = v.action[i]
        mw = w.action[j]
        for x in range(dv):
            for y in range(dw):
                col = x * dw + y
                wy = mw.col(y)
                vx = mv.col(x)
                for p, cp in enumerate(wy):
                    if cp:
                        for q, cq in enumerate(vx):
                            if cq:
                                out[p * dv + q][col] += c * cp * cq
    return Matrix(out)


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


def action_grading(obj, g_index: int) -> tuple[int, ...]:
    """Parity per basis vector from the grouplike action: |a| = 1 iff g·a = −a."""
    mat = obj.action[g_index]
    dim = obj.dim
    parity = []
    for j in range(dim):
        col = mat.col(j)
        target = _unit_vec(dim, j)
        if col == target:
            parity.append(0)
        elif col == [-t for t in target]:
            parity.append(1)
        else:
            raise GradingError(f"basis vector {j} is not a ±1 eigenvector of the grouplike action")
    return tuple(parity)


def coaction_grading(obj, pi_keep: Sequence[int]) -> tuple[int, ...]:
    """Parity from (id ⊗ π)ρ, with π the projection onto the grouplike part.

    pi_keep = (index of 1, index of the grouplike); deg(a) = 0 or 1
    according to (id⊗π)ρ(a) = a⊗1 or a⊗g, anything else is an error.
    """
    one_idx, g_idx = pi_keep
    n = obj.hopf.dim
    dim = obj.dim
    parity = []
    for j in range(dim):
        kept: dict[int, dict[int, Fraction]] = {one_idx: {}, g_idx: {}}
        for a, k, c in coaction_sparse(obj.coaction, n, j):
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


def gradings(a) -> GradingPair:
    """Both natural ℤ₂-gradings of a YD object over H₄ or E(2)."""
    meta = a.hopf.meta
    g_index = meta.get("g") if meta.get("g") is not None else meta.get("c")
    if g_index is None:
        raise ValueError("Hopf algebra metadata lacks a grouplike generator index")
    return GradingPair(action_grading(a, g_index), coaction_grading(a, meta["pi_keep"]))


# ---------------------------------------------------------------------------
# Centralizers
# ---------------------------------------------------------------------------


def yd_centralizers(a: YDAlgebra, sub_basis: list[list[Fraction]]) -> tuple[list, list]:
    """Left and right centralizers of a YD submodule algebra B ⊆ A.

    C^l = {x : b·x = x₍₀₎(x₍₁₎·b) ∀b∈B}, C^r = {x : x·b = b₍₀₎(b₍₁₎·x) ∀b∈B}.
    """
    alg = a.alg
    h = a.hopf
    n = h.dim
    for b in sub_basis:
        for i in range(n):
            if not in_span(sub_basis, a.action[i].apply(b)):
                raise ValueError("subspace not closed under the H-action")
        rho = zero_vec(alg.dim * n)
        for j, c in enumerate(b):
            if c:
                for k, v in enumerate(a.coaction[j]):
                    rho[k] += c * v
        for k in range(n):
            comp = [rho[p * n + k] for p in range(alg.dim)]
            if not in_span(sub_basis, comp):
                raise ValueError("subspace not closed under the H-coaction")

    left_rows: list[dict[int, Fraction]] = []
    right_rows: list[dict[int, Fraction]] = []
    for b in sub_basis:
        lcols = []
        rcols = []
        for j in range(alg.dim):
            ej = alg.basis_vec(j)
            twisted = zero_vec(alg.dim)
            for a0, a1, c in coaction_sparse(a.coaction, n, j):
                acted = a.action[a1].apply(b)
                for p, v in enumerate(alg.mul_vec(alg.basis_vec(a0), acted)):
                    twisted[p] += c * v
            lcols.append([x - y for x, y in zip(alg.mul_vec(b, ej), twisted)])
            tw2 = zero_vec(alg.dim)
            for j2, cb in enumerate(b):
                if cb:
                    for b0, b1, c in coaction_sparse(a.coaction, n, j2):
                        acted = a.action[b1].apply(ej)
                        for p, v in enumerate(alg.mul_vec(alg.basis_vec(b0), acted)):
                            tw2[p] += cb * c * v
            rcols.append([x - y for x, y in zip(alg.mul_vec(ej, b), tw2)])
        for k in range(alg.dim):
            left_rows.append({j: lcols[j][k] for j in range(alg.dim) if lcols[j][k]})
            right_rows.append({j: rcols[j][k] for j in range(alg.dim) if rcols[j][k]})
    zero = zero_vec(len(left_rows))
    left = solve_sparse(left_rows, zero, alg.dim).kernel
    right = solve_sparse(right_rows, zero, alg.dim).kernel
    return left, right


# ---------------------------------------------------------------------------
# Inner and strongly inner action solvers
# ---------------------------------------------------------------------------


def inner_witness(a, x_index: int, c_index: int) -> list[Fraction] | None:
    """Solve x·z = v(c·z) − zv for an odd element v; None when inconsistent.

    ``a`` needs an action and an action-grading; any odd solution is
    accepted (witnesses are unique only up to graded-center elements).
    """
    alg = a.alg
    parity = action_grading(a, c_index)
    odd = [j for j in range(alg.dim) if parity[j] == 1]
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for z in range(alg.dim):
        ez = alg.basis_vec(z)
        cz = a.action[c_index].apply(ez)
        target = a.action[x_index].apply(ez)
        cols = []
        for j in odd:
            vj = alg.basis_vec(j)
            cols.append([x - y for x, y in zip(alg.mul_vec(vj, cz), alg.mul_vec(ez, vj))])
        for k in range(alg.dim):
            rows.append({c: cols[c][k] for c in range(len(odd)) if cols[c][k]})
            rhs.append(target[k])
    sol = solve_sparse(rows, rhs, len(odd))
    if sol.particular is None:
        return None
    out = zero_vec(alg.dim)
    for c, j in enumerate(odd):
        out[j] = sol.particular[c]
    return out


def conjugation_implementer(a, g_index: int, rng=None) -> list[Fraction] | None:
    """Find invertible u with u·z = (g·z)·u for all z, or None.

    The solution space is computed exactly; an invertible representative is
    searched among basis vectors, pairwise sums and a few deterministic
    pseudo-random combinations.
    """
    alg = a.alg
    rows: list[dict[int, Fraction]] = []
    for z in range(alg.dim):
        ez = alg.basis_vec(z)
        gz = a.action[g_index].apply(ez)
        cols = []
        for j in range(alg.dim):
            uj = alg.basis_vec(j)
            cols.append([x - y for x, y in zip(alg.mul_vec(uj, ez), alg.mul_vec(gz, uj))])
        for k in range(alg.dim):
            rows.append({j: cols[j][k] for j in range(alg.dim) if cols[j][k]})
    space = solve_sparse(rows, zero_vec(len(rows)), alg.dim).kernel
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


def normalized_implementer(a, g_index: int) -> list[Fraction] | None:
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


def _solve_affine(alg: StructureAlgebra, equations, unknown_dim: int):
    """Solve a list of (columns, rhs-vector) linear conditions on one unknown."""
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for cols, target in equations:
        for k in range(len(target)):
            rows.append({j: cols[j][k] for j in range(unknown_dim) if cols[j][k]})
            rhs.append(target[k])
    return solve_sparse(rows, rhs, unknown_dim)


def strongly_inner_witness_h4(a: YDAlgebra | ModuleAlgebra):
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
    sol = _solve_affine(alg, equations, alg.dim)
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


def strongly_inner_witness_e2(a: YDAlgebra | ModuleAlgebra) -> StrongInnerE2Result:
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
        sol_w = _solve_affine(alg, eqs, alg.dim)
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
        sol_big = _solve_affine(alg, eqs, alg.dim)
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


def yd_to_double(a: YDAlgebra, double: HopfAlgebra) -> ModuleAlgebra:
    """Make a YD H₄-algebra into a D(H₄)-module algebra.

    1⋈l acts as l; (f⋈1)·m = m₍₀₎ f(m₍₁₎); general basis elements are the
    composites (f⋈1)(1⋈l).
    """
    h = a.hopf
    n = h.dim
    pairing = []
    for i in range(n):
        rows = [[Q(0)] * a.dim for _ in range(a.dim)]
        for b in range(a.dim):
            for p, k, c in coaction_sparse(a.coaction, n, b):
                if k == i:
                    rows[p][b] += c
        pairing.append(Matrix(rows))
    action = []
    for i in range(n):
        for j in range(n):
            action.append(pairing[i] @ a.action[j])
    return ModuleAlgebra(double, a.alg, action)


def double_to_yd(a: ModuleAlgebra, h: HopfAlgebra) -> YDAlgebra:
    """Inverse conversion: restrict to 1⋈H₄ and rebuild the coaction by
    pairing with the dual basis, ρ(m) = Σᵢ ((e_i*⋈1)·m) ⊗ e_i."""
    return YDAlgebra(h, a.alg, *_double_to_yd_structure(a, h))


def double_module_to_yd(m: Module, h: HopfAlgebra) -> YDModule:
    return YDModule(h, m.dim, *_double_to_yd_structure(m, h))


def _double_to_yd_structure(m, h: HopfAlgebra) -> tuple[list[Matrix], list[list[Fraction]]]:
    n = h.dim
    action = [_restrict_double_action(m, h, j) for j in range(n)]
    coaction = []
    for b in range(m.dim):
        out = zero_vec(m.dim * n)
        for i in range(n):
            col = _dual_side_action(m, h, i).col(b)
            for p, v in enumerate(col):
                if v:
                    out[p * n + i] += v
        coaction.append(out)
    return action, coaction


def _dual_side_action(a, h: HopfAlgebra, i: int) -> Matrix:
    # e_i* ⋈ 1 = Σ_j unit_j (e_i* ⋈ e_j)
    n = h.dim
    out = Matrix.zero(a.dim, a.dim)
    for j, c in enumerate(h.alg.unit):
        if c:
            out = out + a.action[i * n + j] * c
    return out


def _restrict_double_action(a, h: HopfAlgebra, j: int) -> Matrix:
    # 1⋈e_j = Σ_i ε_i (f_i⋈e_j), where ε is the unit of H* (the counit of H)
    n = h.dim
    out = Matrix.zero(a.dim, a.dim)
    for i, c in enumerate(h.counit):
        if c:
            out = out + a.action[i * n + j] * c
    return out


def module_tensor(m: Module, w: Module) -> Module:
    """Tensor product of two H-modules via Δ (left factor major)."""
    h = m.hopf
    action = []
    for i in range(h.dim):
        acc = Matrix.zero(m.dim * w.dim, m.dim * w.dim)
        for p, q, c in h.cop_sparse(i):
            acc = acc + m.action[p].kron(w.action[q]) * c
        action.append(acc)
    return Module(h, m.dim * w.dim, action)
