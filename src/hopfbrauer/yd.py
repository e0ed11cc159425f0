"""Yetter-Drinfeld modules and module algebras.

Every object over a fixed Hopf algebra H is a ``YDObject``: a carrier with
some of a product, a left H-action and a right H-coaction, stored as
integers, the one form, built by ``YDObject.from_int``; ``defio`` reads and
writes it over ℚ. Each store passes ``algebra.int_content`` once, and an
object derived from another shares its store unchecked (``_Store``).
Algebras are right H^op-comodule algebras, ρ(ab) = a₍₀₎b₍₀₎ ⊗ b₍₁₎a₍₁₎,
under the Yetter-Drinfeld condition ρ(l·b) = l₍₂₎·b₍₀₎ ⊗ l₍₃₎ b₍₁₎ S⁻¹(l₍₁₎).

Checks, builders and solvers contract on integers, each tensor times the
least common denominator of its entries (the action over D_a, the coaction
over D_c, a product over D_m; Δ, S, R, … over their own), and hand results
to ``from_int`` with their scale. Also here: End(M), F/G, gradings,
braidings, centralizers and the inner action solvers.
"""

from __future__ import annotations

import random
from functools import cache, cached_property
from fractions import Fraction
from typing import Sequence

from .algebra import (
    CheckReport,
    StructureAlgebra,
    commutator_columns,
    endomorphism_algebra,
    int_content,
    on_generators,
    opposite_algebra,
)
from .hopf import HopfAlgebra, QTStructure, _built_on, _tensor
from .linalg import (
    IntVec,
    Matrix,
    SparseVec,
    dense_vec,
    mat_det,
    over,
    rational_is_square,
    scaled,
    solve_columns,
    span_of,
    sparse_sum,
    sparse_vec,
)

Q = Fraction


class GradingError(ValueError):
    """Basis is not homogeneous for the requested ℤ₂-grading."""


class NoRationalNormalization(ValueError):
    """u² is a scalar with no rational square root, so u cannot be normalized."""


# ---------------------------------------------------------------------------
# The carrier
# ---------------------------------------------------------------------------


class _Store(tuple):
    """An integer (den, rows) already checked and reduced by ``from_int``,
    shared as it is by the objects built on it."""


def refuse_assignment(obj, name: str, value=None):
    """``__setattr__`` and ``__delattr__`` of an object that is never mutated:
    raise ``FrozenInstanceError`` as a frozen dataclass does, importing
    ``dataclasses`` on this error path only."""
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"{type(obj).__name__} is frozen: cannot set or delete {name!r}")


class YDObject:
    """A space over H carrying some of a product, a left H-action and a
    right H-coaction; a module, a module algebra, a comodule algebra, a YD
    module or a YD module algebra is this one type with the other fields None.

    ``dim`` is the carrier dimension (``alg.dim`` when there is a product).
    The state: ``int_images`` = (D_a, rows[j][k] = D_a·e_k·e_j as {index: int})
    and ``int_rho`` = (D_c, rows[j] = D_c·ρ(e_j) as (a, k, c) for c·e_a ⊗ e_k),
    sorted, D the least common denominator, written by ``from_int``, the one
    constructor. Objects are never mutated.
    """

    hopf: HopfAlgebra
    dim: int
    alg: StructureAlgebra | None
    int_images: tuple[int, list[list[IntVec]]] | None
    int_rho: tuple[int, list[tuple[tuple[int, int, int], ...]]] | None

    __setattr__ = __delattr__ = refuse_assignment

    @classmethod
    def from_int(cls, hopf: HopfAlgebra, dim: int, alg=None, images=None, rho=None) -> "YDObject":
        """The object with e_k·e_j = Σ (c/D_a)·e_p over the {p: c} of rows[j][k]
        for images = (D_a, rows), ρ(e_j) = Σ (c/D_c)·e_a ⊗ e_k over the (a, k, c)
        of rows[j] for rho = (D_c, rows); each store is checked, sorted and
        divided by its gcd by ``int_content`` (``ValueError`` names a cell that
        is not a dict). Another object's store is shared."""
        n = hopf.dim
        if alg is not None and alg.dim != dim:
            raise ValueError(f"carrier dimension {dim} differs from the algebra's {alg.dim}")
        if images is not None and (len(images[1]) != dim or any(len(row) != n for row in images[1])):
            raise ValueError(f"images must be {dim} rows of {n} sparse vectors")
        if rho is not None and len(rho[1]) != dim:
            raise ValueError(f"rho must have {dim} rows")
        if images is not None and type(images) is not _Store:
            try:
                cells = [v.items() for row in images[1] for v in row]
            except AttributeError:  # searched for only now, so a build pays no check per cell
                j, k, v = next((j, k, v) for j, row in enumerate(images[1]) for k, v in enumerate(row)
                               if not hasattr(v, "items"))
                raise ValueError(f"image cell ({j}, {k}) must be {{index: int}}, not {v!r}") from None
            den, cells = int_content(images[0], cells, dim)
            images = _Store((den, [[dict(v) for v in cells[j * n:(j + 1) * n]] for j in range(dim)]))
        if rho is not None and type(rho) is not _Store:
            rho = _Store(int_content(rho[0], rho[1], dim, n))
        obj = cls.__new__(cls)
        obj.__dict__.update(hopf=hopf, dim=dim, alg=alg, int_images=images, int_rho=rho)
        return obj

    @cached_property
    def module_failures(self) -> list[str]:
        """The messages of ``check_module``, decided once."""
        h = self.hopf
        den_a, images = self.int_images
        den_m, sp = h.alg.int_sp
        den_u, unit = h.alg.int_unit
        unit_ok = all(
            sparse_sum((c, images[y][k]) for k, c in unit.items()) == {y: den_u * den_a} for y in range(self.dim)
        )

        def module_law(idx):
            for i in idx:
                for j in range(h.dim):
                    for y in range(self.dim):
                        # lhs − rhs
                        diff: IntVec = {}
                        for k, c in images[y][j].items():
                            c *= den_m
                            for q, v in images[k][i].items():
                                diff[q] = diff.get(q, 0) + c * v
                        for k, c in sp[i][j]:
                            c *= den_a
                            for q, v in images[y][k].items():
                                diff[q] = diff.get(q, 0) - c * v
                        if any(diff.values()):
                            yield f"action not multiplicative at ({h.alg.basis[i]},{h.alg.basis[j]})"
                            break

        return ([] if unit_ok else ["unit of H does not act as id"]) + on_generators(module_law, h.alg, unit_ok)

    def act(self, hvec: SparseVec, v: SparseVec) -> SparseVec:
        """h·v for h = Σ hvec[i]·e_i in H and v = Σ v[j]·e_j, on ``int_images``."""
        den, rows = self.int_images
        (hi, dh), (vi, dv) = scaled(hvec), scaled(v)
        return over(sparse_sum((c * w, rows[j][i]) for i, c in hi.items() for j, w in vi.items()), den * dh * dv)

    def act_matrix(self, h: tuple[int, IntVec]) -> Matrix:
        """The matrix by which h of H acts, for h = (D_h, {index: integer}) the
        element over D_h, as ``int_unit`` stores 1: integer rows over D_a·D_h,
        column s is h·e_s."""
        den, images = self.int_images
        den_h, hv = h
        rows = [{} for _ in range(self.dim)]
        for s, row in enumerate(images):
            for p, c in sparse_sum((x, row[i]) for i, x in hv.items()).items():
                rows[p][s] = c
        return Matrix.from_int_rows([(den * den_h, r) for r in rows], self.dim)

    def same_structure(self, other: "YDObject") -> bool:
        """Equal product and integer stores (None only equals None)."""
        return (
            (self.alg is None) == (other.alg is None)
            and (self.alg is None or self.alg.same_product(other.alg))
            and self.int_images == other.int_images
            and self.int_rho == other.int_rho
        )


def grouplike_index(h: HopfAlgebra) -> int | None:
    """Index of the grouplike that grades objects over H: meta "g" (H₄) or "c" (E(2))."""
    return h.meta.get("g") if h.meta.get("g") is not None else h.meta.get("c")


# ---------------------------------------------------------------------------
# Axiom checks (integer forms in the docstrings; U = D_u·1, E = D_ε·ε)
# ---------------------------------------------------------------------------


def check_module(m: YDObject) -> CheckReport:
    """1·v = v and e_i·(e_j·v) = (e_i e_j)·v, as Σ U_k·(e_k·v) = D_u·D_a·v and
    D_m·Σ (e_j·v)_k·(e_i·e_k) = D_a·Σ (e_i e_j)_k·(e_k·v), D_m that of H; the
    second by ``on_generators`` on H, given the first; decided once per
    object (``module_failures``)."""
    rep = CheckReport(f"H-module over {m.hopf.name}")
    rep.failures += m.module_failures
    return rep


def check_module_algebra(a: YDObject) -> CheckReport:
    """Left H-module algebra: h·(xy) = (h₍₁₎·x)(h₍₂₎·y), h·1 = ε(h)1, as
    D_Δ·D_a·Σ (xy)_k·(e_i·e_k) = Σ Δ_pq·``mul_int``(e_p·x, e_q·y) and
    D_ε·Σ U_j·(e_i·e_j) = D_a·E_i·U, by ``on_generators`` on A given H's
    ``coalgebra_failures`` == [] (every h·1 is checked in either run)."""
    rep = CheckReport(f"module algebra over {a.hopf.name}")
    rep.merge(check_module(a))
    h = a.hopf
    alg = a.alg
    den_a, images = a.int_images
    sp = alg.int_sp[1]
    den_d, cop = h.int_cop
    den_e, counit = h.int_counit
    unit = alg.int_unit[1]

    def module_algebra_law(xs):
        for i in range(h.dim):
            one = sparse_sum((den_e * c, images[j][i]) for j, c in unit.items())
            if one != sparse_sum([(den_a * counit.get(i, 0), unit)]):
                yield f"h·1 ≠ ε(h)1 at {h.alg.basis[i]}"
            for x in xs:
                for y in range(alg.dim):
                    # lhs − rhs, the products contracted in place
                    diff: IntVec = {}
                    for k, c in sp[x][y]:
                        c *= den_d * den_a
                        for t, v in images[k][i].items():
                            diff[t] = diff.get(t, 0) + c * v
                    for p, q, c in cop[i]:
                        yq = images[y][q].items()
                        for r, u in images[x][p].items():
                            spr = sp[r]
                            for s, w in yq:
                                cuw = c * u * w
                                for t, v in spr[s]:
                                    diff[t] = diff.get(t, 0) - cuw * v
                    if any(diff.values()):
                        yield f"module-algebra law fails at ({h.alg.basis[i]}; {alg.basis[x]},{alg.basis[y]})"

    rep.failures += on_generators(module_algebra_law, alg, not h.coalgebra_failures)
    return rep


def check_comodule(m: YDObject) -> CheckReport:
    """(id⊗ε)ρ = id and (ρ⊗id)ρ = (id⊗Δ)ρ, as (id⊗E)ρ(e_j) = D_c·D_ε·e_j and
    D_Δ·(ρ⊗id)ρ = D_c·(id⊗Δ)ρ."""
    rep = CheckReport(f"H-comodule over {m.hopf.name}")
    h = m.hopf
    den_c, rho = m.int_rho
    den_d, cop = h.int_cop
    den_e, counit = h.int_counit
    for j in range(m.dim):
        sp = rho[j]
        ej = sparse_sum((c * counit.get(k, 0), {a: 1}) for a, k, c in sp)
        rep.require(ej == {j: den_c * den_e}, f"(id⊗ε)ρ fails at index {j}")
        diff: dict[tuple[int, int, int], int] = {}
        for a, k, c in sp:
            for b, l, d in rho[a]:
                key = (b, l, k)
                diff[key] = diff.get(key, 0) + den_d * c * d
            for p, q, d in cop[k]:
                key = (a, p, q)
                diff[key] = diff.get(key, 0) - den_c * c * d
        rep.require(not any(diff.values()), f"coassociativity of ρ fails at index {j}")
    return rep


def check_comodule_algebra_op(a: YDObject) -> CheckReport:
    """Right H^op-comodule algebra: ρ(xy) = x₍₀₎y₍₀₎ ⊗ y₍₁₎x₍₁₎, ρ(1) = 1⊗1, as
    D_c·D_n·ρ(xy) − Σ c_x·c_y·(x₀y₀) ⊗ (y₁x₁) = 0, one integer dict on
    ``int_sp`` (D_n that of H), and D_u(H)·ρ(U) = D_c·U ⊗ U_H; the first by
    ``on_generators`` on A, given the second, a comodule and H associative."""
    rep = CheckReport(f"H^op-comodule algebra over {a.hopf.name}")
    comodule = check_comodule(a)
    rep.merge(comodule)
    h = a.hopf
    alg = a.alg
    n = h.dim
    den_c, rho = a.int_rho
    sp = alg.int_sp[1]
    den_n, hsp = h.alg.int_sp
    rho_flat = [{x0 * n + x1: c for x0, x1, c in row} for row in rho]
    unit = alg.int_unit[1]
    den_hu, hunit = h.alg.int_unit
    rho_one = sparse_sum((den_hu * c, rho_flat[j]) for j, c in unit.items())
    unit_ok = rep.require(
        rho_one == _tensor(unit.items(), [(k, den_c * c) for k, c in hunit.items()], n), "ρ(1) ≠ 1⊗1"
    )
    lift = den_c * den_n

    def comodule_algebra_law(xs):
        for x in xs:
            for y in range(alg.dim):
                diff: IntVec = {}
                for j, c in sp[x][y]:
                    c *= lift
                    for t, v in rho_flat[j].items():
                        diff[t] = diff.get(t, 0) + c * v
                for ax, kx, cx in rho[x]:
                    spx = sp[ax]
                    for ay, ky, cy in rho[y]:
                        hk = hsp[ky][kx]
                        for p, cp in spx[ay]:
                            cp *= cx * cy
                            for q, cq in hk:
                                t = p * n + q
                                diff[t] = diff.get(t, 0) - cp * cq
                if any(diff.values()):
                    yield f"ρ not H^op-multiplicative at ({alg.basis[x]},{alg.basis[y]})"

    rep.failures += on_generators(comodule_algebra_law, alg, unit_ok and comodule.ok and h.alg.associative)
    return rep


def check_yd_condition(m: YDObject) -> CheckReport:
    """ρ(l·b) = l₍₂₎·b₍₀₎ ⊗ l₍₃₎ b₍₁₎ S⁻¹(l₍₁₎) on all basis pairs, as
    D_Δ₂·D_n²·D_S·ρ(l·b) = Σ c·d·(l₂·b₀) ⊗ ``mul_int``(l₃ b₁, S⁻¹(l₁)), with
    (Δ⊗id)Δ over D_Δ₂, S⁻¹ over D_S and H's product over D_n; by
    ``on_generators`` on H, given an H-module and H ``certified``."""
    rep = CheckReport(f"Yetter-Drinfeld condition over {m.hopf.name}")
    h = m.hopf
    n = h.dim
    images = m.int_images[1]
    rho = m.int_rho[1]
    den_n, hsp = h.alg.int_sp
    den_w, sw2 = h.int_cop2
    rho_flat = [{b0 * n + b1: c for b0, b1, c in row} for row in rho]
    den_s, sinv = h.int_s_inv
    scale = den_w * den_n * den_n * den_s

    @cache
    def h_factor(l3: int, k: int, l1: int):
        """(e_l3 e_k) S⁻¹(e_l1), bracketed as in the condition."""
        return tuple(h.alg.mul_int(dict(hsp[l3][k]), sinv[l1]).items())

    def yd_law(ls):
        for li in ls:
            for b in range(m.dim):
                lhs = sparse_sum((scale * c, rho_flat[j]) for j, c in images[b][li].items())
                rhs = sparse_sum(
                    (c * d, _tensor(images[a][l2].items(), h_factor(l3, k, l1), n))
                    for l1, l2, l3, c in sw2[li]
                    for a, k, d in rho[b]
                )
                if lhs != rhs:
                    yield f"YD condition fails at (l={h.alg.basis[li]}, b=index {b})"

    rep.failures += on_generators(yd_law, h.alg, h.certified and not m.module_failures)
    return rep


def check_yd_module(m: YDObject) -> CheckReport:
    _built_on(m.hopf, m, action=m.int_images, coaction=m.int_rho)
    rep = CheckReport("Yetter-Drinfeld module")
    rep.merge(check_module(m))
    rep.merge(check_comodule(m))
    rep.merge(check_yd_condition(m))
    return rep


def _yd_algebra(h: HopfAlgebra, a: YDObject) -> None:
    """``_built_on``: a is over h, with a product, an action and a coaction."""
    _built_on(h, a, product=a.alg, action=a.int_images, coaction=a.int_rho)


def check_yd_algebra(a: YDObject) -> CheckReport:
    """Module algebra + H^op-comodule algebra + YD compatibility, itemised.

    Every identity is compared on integers, from the object's ``int_images``
    and ``int_rho`` and the ``int_sp`` of A and H (module docstring)."""
    _yd_algebra(a.hopf, a)
    rep = CheckReport("Yetter-Drinfeld module algebra")
    rep.merge(check_module_algebra(a))
    rep.merge(check_comodule_algebra_op(a))
    rep.merge(check_yd_condition(a))
    return rep


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def h_opposite(a: YDObject) -> YDObject:
    """The H-opposite algebra: same action and coaction, x∘y = y₍₀₎(y₍₁₎·x),
    contracted over D_c·D_a·D_m for ``StructureAlgebra.from_int``."""
    _yd_algebra(a.hopf, a)
    alg = a.alg
    den_c, rho = a.int_rho
    den_a, images = a.int_images

    def product(i: int, j: int) -> IntVec:
        out: IntVec = {}
        for b, k, c in rho[j]:
            alg.mul_int({b: c}, images[i][k], out)
        return out

    table = [[product(i, j).items() for j in range(alg.dim)] for i in range(alg.dim)]
    name = f"{alg.name}~" if alg.name else "opposite"
    new_alg = StructureAlgebra.from_int(alg.basis, alg.int_unit, table, den_c * den_a * alg.int_sp[0], name=name)
    return YDObject.from_int(a.hopf, alg.dim, new_alg, a.int_images, a.int_rho)


def sharp_product(a: YDObject, b: YDObject) -> YDObject:
    """Braided product A # B: (x#y)(z#w) = x z₍₀₎ # (z₍₁₎·y) w, with the
    tensor-product action (``module_tensor``) and the H^op coaction
    ρ(x#y) = x₍₀₎#y₍₀₎ ⊗ y₍₁₎x₍₁₎. Flat index of x#y: x·dim(B) + y.

    The product is contracted from the coaction of A, the action on B and
    the products of A and B over D_c·D_a·D_A·D_B, the coaction from those of
    A and B and the product of H."""
    _yd_algebra(a.hopf, a)
    _yd_algebra(a.hopf, b)
    h = a.hopf
    da, db = a.dim, b.dim
    dim = da * db
    basis = [f"{a.alg.basis[i]}#{b.alg.basis[j]}" for i in range(da) for j in range(db)]
    (den_ua, unit_a), (den_ub, unit_b) = a.alg.int_unit, b.alg.int_unit
    unit = den_ua * den_ub, _tensor(unit_a.items(), unit_b.items(), db)

    den_c, rho_a = a.int_rho
    den_a, images_b = b.int_images
    den_ma, sp_a = a.alg.int_sp
    mul_b = b.alg.mul_int
    # right[y][k][w] = (e_k·y)·w in B over D_a·D_B, for the H indices k that
    # occur in the coaction of A
    ks = {k for terms in rho_a for _, k, _ in terms}
    right = [{k: [mul_b(images_b[y][k], {w: 1}) for w in range(db)] for k in ks} for y in range(db)]
    table = [
        [
            sparse_sum((c, _tensor(sp_a[x][z0], right[y][z1][w].items(), db)) for z0, z1, c in rho_a[z]).items()
            for z in range(da)
            for w in range(db)
        ]
        for x in range(da)
        for y in range(db)
    ]
    den = den_c * den_a * den_ma * b.alg.int_sp[0]
    alg = StructureAlgebra.from_int(basis, unit, table, den, name=f"{a.alg.name}#{b.alg.name}")

    den_cb, rho_b = b.int_rho
    den_h, sp_h = h.alg.int_sp
    rho = [
        [(*key, c) for key, c in sparse_sum(
            (cx * cy, {(ax * db + by, q): cq for q, cq in sp_h[ky][kx]})
            for ax, kx, cx in rho_a[x]
            for by, ky, cy in rho_b[y]
        ).items()]
        for x in range(da)
        for y in range(db)
    ]
    return YDObject.from_int(h, dim, alg, module_tensor(a, b).int_images, (den_c * den_cb * den_h, rho))


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
    _built_on(m.hopf, m, action=m.int_images)
    h, n, d = m.hopf, m.hopf.dim, m.dim
    plain = variant == "plain"
    alg = endomorphism_algebra(d) if plain else opposite_algebra(endomorphism_algebra(d))

    # e_i·E_zy (e_y ↦ e_z, at y·d + z) = Σ c·e_l ∘ E_zy ∘ u over Δ(e_i) =
    # Σ c·(u·e_x)_y·(e_l·e_z)_r E_rx; l = p, u = S(e_q) (plain) or l = q,
    # u = S⁻¹(e_p) (op); right[y] = the (x, (u·e_x)_y); over D_Δ·D_u·D_a²
    den_a, m_images = m.int_images
    den_d, cop = h.int_cop
    # u from S (plain) or S⁻¹ (op), h_part below from the other
    (den_u, u_cols), (den_w, w_cols) = (h.int_s, h.int_s_inv)[::1 if plain else -1]
    terms = [[] for _ in range(n)]
    for i in range(n):
        for p, q, c in cop[i]:
            l, u = (p, u_cols[q]) if plain else (q, u_cols[p])
            right = [[] for _ in range(d)]
            for x in range(d):
                for y, v in sparse_sum((cu, m_images[x][k]) for k, cu in u.items()).items():
                    right[y].append((x, v))
            terms[i].append((c, l, right))
    images = [
        [sparse_sum((c, _tensor(right[y], m_images[z][l].items(), d)) for c, l, right in terms[i]) for i in range(n)]
        for y in range(d)
        for z in range(d)
    ]
    images = (den_d * den_u * den_a * den_a, images)
    if m.int_rho is None:
        return YDObject.from_int(h, d * d, alg, images)
    den_c, m_rho = m.int_rho
    mul = h.alg.mul_int

    def h_part(k0: int, l1: int) -> IntVec:
        """S⁻¹(e_k0)·e_l1 (plain) or e_l1·S(e_k0) (op)."""
        return mul(w_cols[k0], {l1: 1}) if plain else mul({l1: 1}, w_cols[k0])

    # rho[t·d + j] is ρ(E_jt) for the matrix unit E_jt: e_t ↦ e_j; evaluated
    # at e_r, only the terms e_t ⊗ e_k0 of ρ(e_r) survive, giving
    # Σ e_b1 ⊗ h_part(k0, l1) over ρ(e_j), read off at (e_r* ⊗ e_b1) ⊗ e_q
    rho = [{} for _ in range(d * d)]
    for r in range(d):
        for t, k0, c0 in m_rho[r]:
            for j in range(d):
                out = rho[t * d + j]
                for b1, l1, c1 in m_rho[j]:
                    for q, cq in h_part(k0, l1).items():
                        key = (r * d + b1, q)
                        out[key] = out.get(key, 0) + c0 * c1 * cq
    rho = [[(*key, c) for key, c in out.items() if c] for out in rho]
    return YDObject.from_int(h, d * d, alg, images, (den_c * den_c * den_w * h.alg.int_sp[0], rho))


# ---------------------------------------------------------------------------
# The F and G maps; Azumaya test
# ---------------------------------------------------------------------------


class FGContraction:
    """F and G of one YD algebra, contracted on integers.

    F(x#y)(z) = Σ_h u_h·(e_h·y), u_h = Σ c·x z₍₀₎ over the terms of ρ(z) with
    z₍₁₎ = e_h (``f_left``); G(x#y)(z) = (Σ c·x₍₀₎(x₍₁₎·z))·y (``g_left``). F's
    right factor is right[y][h][k] = e_k·(e_h·e_y), built on first read (by
    ``fg_maps``) and only where some e_k·e_j in it is nonzero, else one
    shared {}. Nothing is reassociated, so the values are the definitions'
    for any product.

    The product is over D_m (``int_sp``), ``rho`` over D_c and ``images``
    over D_a, so an integer value v stands for v / ``den``, den =
    D_c·D_a·D_m². ``f_value`` and ``g_value`` take rational x, y, z.
    """

    def __init__(self, a: YDObject):
        self.alg = a.alg
        self.hdim = a.hopf.dim
        den_c, self.rho = a.int_rho
        den_a, self.images = a.int_images
        den_m = a.alg.int_sp[0]
        self.den = den_c * den_a * den_m * den_m

    @cached_property
    def right(self) -> list[list[list[IntVec]]]:
        mul, d = self.alg.mul_int, self.alg.dim
        # hits[k] = {j : e_k·e_j ≠ 0}
        hits = [{j for j, term in enumerate(row) if term} for row in self.alg.int_sp[1]]
        empty: IntVec = {}
        return [
            [[empty if hits[k].isdisjoint(hy) else mul({k: 1}, hy) for k in range(d)] for hy in self.images[y]]
            for y in range(d)
        ]

    def images_of(self, v: IntVec) -> list[IntVec]:
        return [sparse_sum((c, self.images[j][k]) for j, c in v.items()) for k in range(self.hdim)]

    def f_left(self, x: IntVec, z: IntVec) -> list[tuple[int, IntVec]]:
        """Pairs (h, Σ c·x z₍₀₎ over the terms of ρ(z) with z₍₁₎ = e_h)."""
        by_h: dict[int, IntVec] = {}
        for j, cz in z.items():
            for z0, z1, c in self.rho[j]:
                self.alg.mul_int(x, {z0: c * cz}, by_h.setdefault(z1, {}))
        return list(by_h.items())

    def f_value(self, x: SparseVec, y: SparseVec, z: SparseVec) -> SparseVec:
        """F(x#y)(z) for arbitrary rational sparse x, y, z."""
        (xi, dx), (yi, dy), (zi, dz) = (scaled(v) for v in (x, y, z))
        y_images, f = self.images_of(yi), {}
        for h, u in self.f_left(xi, zi):
            self.alg.mul_int(u, y_images[h], f)
        return over(f, self.den * dx * dy * dz)

    def g_value(self, x: SparseVec, y: SparseVec, z: SparseVec) -> SparseVec:
        """G(x#y)(z) for arbitrary rational sparse x, y, z."""
        (xi, dx), (yi, dy), (zi, dz) = (scaled(v) for v in (x, y, z))
        return over(self.alg.mul_int(self.g_left(xi, self.images_of(zi)), yi), self.den * dx * dy * dz)

    def g_left(self, x: IntVec, z_images: list[IntVec]) -> IntVec:
        """Σ c·x₍₀₎(x₍₁₎·z), the left factor of G(x#y)(z) = (…)·y."""
        out: IntVec = {}
        for i, cx in x.items():
            for x0, x1, c in self.rho[i]:
                self.alg.mul_int({x0: c * cx}, z_images[x1], out)
        return out


def fg_maps(a: YDObject) -> tuple[Matrix, Matrix]:
    """Matrices of F: A#Ā → End(A), F(x#y)(z) = x z₍₀₎ (z₍₁₎·y)
    and G: Ā#A → End(A)^op, G(x#y)(z) = x₍₀₎(x₍₁₎·z) y.

    Columns run over the #-basis x⊗y (left-major); rows over the matrix
    units of End(A) in dual-major order, matching endomorphism_algebra.

    Built on ``FGContraction`` with no product per column: for each (x, z),
    F for all y at once from ``f_left`` and the nonempty cells of ``right``,
    G from ``g_left`` and the (p·d + y, c) terms of e_i·e_y. Each nonzero is
    written once into integer rows over ``den`` for ``Matrix.from_int_rows``;
    equal values share one int object.
    """
    _yd_algebra(a.hopf, a)
    d = a.dim
    fg = FGContraction(a)
    # cells[h][k] = the (y, e_k·(e_h·e_y)) that are not empty
    cells = [[[(y, ry[h][k]) for y, ry in enumerate(fg.right) if ry[h][k]] for k in range(d)] for h in range(fg.hdim)]
    # the (p·d + y, c) terms of e_i·e_y for every y, one list per i
    products = [[(p * d + y, c) for y, term in enumerate(row) for p, c in term] for row in a.alg.int_sp[1]]
    # F and G of the d = 16 ladder tower hold 4,932 distinct values among
    # 40,272 nonzero entries
    values: dict[int, int] = {}
    value = values.setdefault
    f: list[IntVec] = [{} for _ in range(d * d)]
    g: list[IntVec] = [{} for _ in range(d * d)]
    for x in range(d):
        xv = {x: 1}
        for z in range(d):
            f_left = fg.f_left(xv, {z: 1})
            if f_left:
                # accs[y] = F(e_x#e_y)(e_z), for all y at once
                accs: list[IntVec] = [{} for _ in range(d)]
                for h, u in f_left:
                    for k, uk in u.items():
                        for y, cell in cells[h][k]:
                            acc = accs[y]
                            for p, v in cell.items():
                                acc[p] = acc.get(p, 0) + uk * v
                frows = f[z * d:(z + 1) * d]
                for col, acc in enumerate(accs, x * d):
                    for p, v in acc.items():
                        if v:
                            frows[p][col] = value(v, v)
            acc = {}
            for i, c in fg.g_left(xv, fg.images[z]).items():
                for key, v in products[i]:
                    acc[key] = acc.get(key, 0) + c * v
            for key, v in acc.items():
                if v:
                    p, y = divmod(key, d)
                    g[z * d + p][x * d + y] = value(v, v)
    return (Matrix.from_int_rows([(fg.den, r) for r in f], d * d),
            Matrix.from_int_rows([(fg.den, r) for r in g], d * d))


def is_h_azumaya(a: YDObject) -> bool:
    """A is H-Azumaya iff both F and G are bijective."""
    f, g = fg_maps(a)
    return mat_det(f) != 0 and mat_det(g) != 0


# ---------------------------------------------------------------------------
# Induced structures from (co)quasitriangular data
# ---------------------------------------------------------------------------


def induced_coaction(a: YDObject, r: QTStructure) -> YDObject:
    """Equip an H-module (algebra) with ρ(x) = (R⁽²⁾·x) ⊗ R⁽¹⁾, replacing
    any coaction it has; over D_R·D_a."""
    _built_on(a.hopf, r)
    _built_on(a.hopf, a, action=a.int_images)
    den_r, pairs = r.int_pairs
    den_a, images = a.int_images
    rho = [
        [(*key, v) for key, v in sparse_sum(
            (c, {(p, i): x for p, x in row[k].items()}) for (i, k), c in pairs.items()
        ).items()]
        for row in images
    ]
    return YDObject.from_int(a.hopf, a.dim, a.alg, a.int_images, (den_r * den_a, rho))


def induced_action(a: YDObject, r: QTStructure) -> YDObject:
    """Equip an H-comodule (algebra) with h·x = x₍₀₎ r(h ⊗ x₍₁₎), replacing
    any action it has, for a form r on H given as R_r on H*; over D_c·D_r."""
    _built_on(a.hopf.dual, r)
    _built_on(a.hopf, a, coaction=a.int_rho)
    den_r, form = r.int_pairs
    den_c, rho = a.int_rho
    images = [[sparse_sum((c * form[i, k], {b: 1}) for b, k, c in row if (i, k) in form) for i in range(a.hopf.dim)]
              for row in rho]
    return YDObject.from_int(a.hopf, a.dim, a.alg, (den_c * den_r, images), a.int_rho)


# ---------------------------------------------------------------------------
# Braidings
# ---------------------------------------------------------------------------


def braiding_psi(v: YDObject, w: YDObject, r: QTStructure) -> Matrix:
    """ψ: V⊗W → W⊗V, v⊗w ↦ R⁽²⁾·w ⊗ R⁽¹⁾·v (left-major flat indices):
    Σ R⁽²⁾ ⊗ R⁽¹⁾ acting on W⊗V, after the plain flip V⊗W → W⊗V, as integer rows."""
    _built_on(v.hopf, r)
    _built_on(w.hopf, r)
    den_r, pairs = r.int_pairs
    (den_v, vi), (den_w, wi) = v.int_images, w.int_images
    rows = [{} for _ in range(v.dim * w.dim)]
    for x in range(v.dim):
        for y in range(w.dim):
            terms = ((c, _tensor(wi[y][j].items(), vi[x][i].items(), v.dim)) for (i, j), c in pairs.items())
            for k, c in sparse_sum(terms).items():
                rows[k][x * w.dim + y] = c
    return Matrix.from_int_rows([(den_r * den_v * den_w, row) for row in rows], v.dim * w.dim)


def graded_flip(v_par: Sequence[int], w_par: Sequence[int]) -> Matrix:
    """ψ₀: V⊗W → W⊗V, v⊗w ↦ (−1)^{|v||w|} w⊗v for homogeneous bases."""
    dv, dw = len(v_par), len(w_par)
    rows = [(1, {x * dw + y: -1 if v_par[x] and w_par[y] else 1}) for y in range(dw) for x in range(dv)]
    return Matrix.from_int_rows(rows, dv * dw)


# ---------------------------------------------------------------------------
# Gradings
# ---------------------------------------------------------------------------


class GradingPair:
    def __init__(self, action_parity: tuple[int, ...], coaction_parity: tuple[int, ...]):
        self.action_parity, self.coaction_parity = action_parity, coaction_parity

    @property
    def equal(self) -> bool:
        return self.action_parity == self.coaction_parity


def action_grading(obj: YDObject, g_index: int) -> tuple[int, ...]:
    """Parity per basis vector from the grouplike action: |a| = 1 iff g·a = −a."""
    parity = []
    den, images = obj.int_images
    for j in range(obj.dim):
        col = images[j][g_index]
        if col == {j: den}:
            parity.append(0)
        elif col == {j: -den}:
            parity.append(1)
        else:
            raise GradingError(f"basis vector {j} is not a ±1 eigenvector of the grouplike action")
    return tuple(parity)


def coaction_grading(obj: YDObject, pi_keep: Sequence[int]) -> tuple[int, ...]:
    """Parity from (id ⊗ π)ρ, with π the projection onto the grouplike part.

    pi_keep = (index of 1, index of the grouplike); deg(a) = 0 or 1
    according to (id⊗π)ρ(a) = a⊗1 or a⊗g, anything else is an error.
    """
    parity = []
    den, rho = obj.int_rho
    for j, row in enumerate(rho):
        kept = {(a, k): c for a, k, c in row if k in pi_keep}
        if kept == {(j, pi_keep[0]): den}:
            parity.append(0)
        elif kept == {(j, pi_keep[1]): den}:
            parity.append(1)
        else:
            raise GradingError(f"(id⊗π)ρ is not e_{j}⊗1 or e_{j}⊗g at index {j}")
    return tuple(parity)


def gradings(a: YDObject) -> GradingPair:
    """Both natural ℤ₂-gradings of a YD object over H₄ or E(2)."""
    _built_on(a.hopf, a, action=a.int_images, coaction=a.int_rho)
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
    _yd_algebra(a.hopf, a)
    alg = a.alg
    mul = alg.mul_int
    d, n = alg.dim, a.hopf.dim
    (den_c, rho), (den_a, images) = a.int_rho, a.int_images
    subs = [scaled(sparse_vec(b))[0] for b in sub_basis]
    span = span_of(sub_basis, d)
    # acted[k] = e_k·b, one list per b
    acted_all = [[sparse_sum((c, images[j][k]) for j, c in b.items()) for k in range(n)] for b in subs]
    for b, acted in zip(subs, acted_all):
        if any(span.reduce(v) for v in acted):
            raise ValueError("subspace not closed under the H-action")
        # ρ(b) = Σ_k components[k] ⊗ e_k
        components = [
            sparse_sum((c * v, {p: 1}) for j, c in b.items() for p, i, v in rho[j] if i == k) for k in range(n)
        ]
        if any(span.reduce(comp) for comp in components):
            raise ValueError("subspace not closed under the H-coaction")

    left_eqs = []
    right_eqs = []
    for b, acted in zip(subs, acted_all):
        lcols = []
        rcols = []
        for j in range(d):
            # b·e_j − e_j₍₀₎(e_j₍₁₎·b) and e_j·b − b₍₀₎(b₍₁₎·e_j)
            out: IntVec = {}
            for a0, a1, c in rho[j]:
                mul({a0: -c}, acted[a1], out)
            lcols.append(mul(b, {j: den_c * den_a}, out))
            out = {}
            for j2, cb in b.items():
                for b0, b1, c in rho[j2]:
                    mul({b0: -cb * c}, images[j][b1], out)
            rcols.append(mul({j: den_c * den_a}, b, out))
        left_eqs.append((lcols, {}))
        right_eqs.append((rcols, {}))
    return solve_columns(left_eqs, d).kernel, solve_columns(right_eqs, d).kernel


# ---------------------------------------------------------------------------
# Inner and strongly inner action solvers
# ---------------------------------------------------------------------------


def inner_witness(a: YDObject, x_index: int, c_index: int) -> list[Fraction] | None:
    """Solve x·z = v(c·z) − zv for an odd element v; None when inconsistent.

    ``a`` needs an action and an action-grading; any odd solution is
    accepted (witnesses are unique only up to graded-center elements).
    """
    _built_on(a.hopf, a, product=a.alg, action=a.int_images)
    alg = a.alg
    (den_a, images), den_m = a.int_images, alg.int_sp[0]
    parity = action_grading(a, c_index)
    odd = [j for j in range(alg.dim) if parity[j] == 1]
    # a block per z, over D_m·D_a
    blocks = [(commutator_columns(alg, acts[c_index], -1, {z: den_a}, odd), sparse_sum([(den_m, acts[x_index])]))
              for z, acts in enumerate(images)]
    sol = solve_columns(blocks, len(odd))
    return None if sol.particular is None else dense_vec(dict(zip(odd, sol.particular)), alg.dim)


def _candidates(space: list[list[Fraction]]):
    """Kernel vectors, their pairwise sums, then 20 combinations with
    coefficients in [−5, 5] from ``random.Random(20259)``, built lazily."""
    yield from space
    for i, x in enumerate(space):
        for y in space[i + 1:]:
            yield [p + q for p, q in zip(x, y)]
    prng = random.Random(20259)
    for _ in range(20):
        coeffs = [Q(prng.randint(-5, 5)) for _ in space]
        yield [sum((c * v[k] for c, v in zip(coeffs, space)), Q(0)) for k in range(len(space[0]))]


def conjugation_implementer(a: YDObject, g_index: int) -> list[Fraction] | None:
    """Find invertible u with u·z = (g·z)·u for all z, or None.

    The solution space is computed exactly; an invertible representative is
    searched among basis vectors, pairwise sums and a few deterministic
    pseudo-random combinations (``_candidates``).
    """
    _built_on(a.hopf, a, product=a.alg, action=a.int_images)
    alg = a.alg
    den_a, images = a.int_images
    equations = [(commutator_columns(alg, {z: den_a}, -1, acts[g_index], range(alg.dim)), {})
                 for z, acts in enumerate(images)]
    space = solve_columns(equations, alg.dim).kernel
    if not space:
        return None
    return next((u for u in _candidates(space) if any(u) and alg.is_invertible(u)), None)


def _square_scalar(alg: StructureAlgebra, x: Sequence[Fraction]) -> Fraction | None:
    """c if x² = c·1, else None: x scaled by D, x² by ``mul_int`` over D²·D_m,
    against the unit store (D_u, U) on integers: U_k·x² = x²_k·U at k = min U."""
    xi, den = scaled(sparse_vec(x))
    sq, (den_u, unit) = alg.mul_int(xi, xi), alg.int_unit
    if not unit:
        return None
    k = min(unit)
    s = sq.get(k, 0)
    if {j: unit[k] * v for j, v in sq.items()} != {j: s * u for j, u in unit.items() if s}:
        return None
    return Fraction(den_u * s, unit[k] * den * den * alg.int_sp[0])


def normalized_implementer(a: YDObject, g_index: int) -> list[Fraction] | None:
    """Invertible u with u·z·u⁻¹ = g·z and u² = 1, rationally normalized."""
    u = conjugation_implementer(a, g_index)
    if u is None:
        return None
    lam = _square_scalar(a.alg, u)
    if lam is None:
        raise NoRationalNormalization("u² is not scalar")
    root = rational_is_square(lam)
    if root is None:
        raise NoRationalNormalization(f"u² = {lam} has no rational square root")
    return [x / root for x in u]


def _strong_inner_solver(a: YDObject, u: list[Fraction]):
    """x ↦ p(x) for an algebra map p: E(n) → A, p(c) = u, u² = 1, giving the
    action: x·z = p(x)·z·u + z·u·p(x) for all z, u·p(x) + p(x)·u = 0; the
    ``solve_columns`` particular solution, or None. The columns of v ↦ vy + yv
    for y = u, then y = zu for each z, are built once, over D_m²·D_u·D_a."""
    alg, d = a.alg, a.dim
    den_a, images = a.int_images
    su, den_u = scaled(sparse_vec(u))
    lift = alg.int_sp[0] ** 2 * den_u
    ys = (su, *(alg.mul_int({z: den_a}, su) for z in range(d)))
    columns = [commutator_columns(alg, y, 1, y, range(d)) for y in ys]

    def strong_inner_p(x: int) -> list[Fraction] | None:
        targets = [{}] + [sparse_sum([(lift, acts[x])]) for acts in images]
        return solve_columns(zip(columns, targets), d).particular

    return strong_inner_p


def strongly_inner_witness_h4(a: YDObject):
    """Witness (u, w, β) for g·z = uzu⁻¹, h·z = w(g·z) − zw, u²=1, wu+uw=0, w²=β.

    H₄ = E(1): w = p(h)·u for p(h) from ``_strong_inner_solver``.
    Returns None when the defining linear systems are inconsistent. β is the
    scalar w² and is the (k,+)-component of the class; a non-scalar w² is an
    error because this invariant is then undefined.
    """
    h4, alg = a.hopf, a.alg
    u = normalized_implementer(a, h4.meta["g"])
    p_h = None if u is None else _strong_inner_solver(a, u)(h4.meta["h"])
    if p_h is None:
        return None
    (sp, den_p), (su, den_u) = scaled(sparse_vec(p_h)), scaled(sparse_vec(u))
    w = dense_vec(over(alg.mul_int(sp, su), den_p * den_u * alg.int_sp[0]), alg.dim)
    beta = _square_scalar(alg, w)
    if beta is None:
        raise ValueError("w² is not scalar; the (k,+)-invariant is undefined here")
    return u, w, beta


class StrongInnerE2Result:
    def __init__(self, witness: tuple | None, branch_failures: list[str] | None = None):
        self.witness = witness
        self.branch_failures = [] if branch_failures is None else branch_failures

    @property
    def strongly_inner(self) -> bool:
        return self.witness is not None


def strongly_inner_witness_e2(a: YDObject) -> StrongInnerE2Result:
    """Exhaustive branch analysis for a strongly inner E(2)-action.

    A convolution-invertible algebra map p: E(2) → A giving the action
    would satisfy, with u' = p(c), w' = p(x₁), W' = p(cx₂) = u'·p(x₂):
        c·f  = u' f u'⁻¹,
        x·f  = p(x) f u' + f u' p(x), u'p(x) + p(x)u' = 0 (x = x₁, x₂).
    Centrality forces u' = ±u; in both sign branches ``_strong_inner_solver``
    solves p(x₁) and p(x₂), then all E(2) relations are checked on the
    candidate generators.
    """
    meta = a.hopf.meta
    u0 = normalized_implementer(a, meta["c"])
    if u0 is None:
        return StrongInnerE2Result(None, ["c-action is not implemented by conjugation"])
    alg = a.alg
    failures = []
    for lam in (Q(1), Q(-1)):
        u = [lam * x for x in u0]
        label = f"branch u' = {'+' if lam > 0 else '-'}u"
        strong_inner_p = _strong_inner_solver(a, u)
        w = strong_inner_p(meta["x1"])
        if w is None:
            failures.append(f"{label}: no solution for p(x₁)")
            continue
        px2 = strong_inner_p(meta["x2"])
        if px2 is None:  # then no p(cx₂) = u'·p(x₂) either
            failures.append(f"{label}: no solution for p(cx₂)")
            continue

        # the relations on integer multiples of w, p(x₂) and W', each side
        # of a sum on one scale; a multiple is zero exactly when the value is
        (su, den_u), (spx2, den_p) = scaled(sparse_vec(u)), scaled(sparse_vec(px2))
        sw, sbig = scaled(sparse_vec(w))[0], alg.mul_int(su, spx2)  # W' over D_u·D_p·D_m
        relation_checks = [
            ("p(x₁)² = 0", alg.mul_int(sw, sw)),
            ("p(x₂)² = 0", alg.mul_int(spx2, spx2)),
            ("p(x₁)p(x₂) + p(x₂)p(x₁) = 0", alg.mul_int(sw, spx2, alg.mul_int(spx2, sw))),
            ("(cx₂)x₁ − x₁(cx₂) = 0", sparse_sum(((1, alg.mul_int(sbig, sw)), (-1, alg.mul_int(sw, sbig))))),
        ]
        bad = [name for name, value in relation_checks if value]
        if bad:
            failures.append(f"{label}: relation(s) not respected: {', '.join(bad)}")
            continue
        return StrongInnerE2Result((u, w, dense_vec(over(sbig, den_u * den_p * alg.int_sp[0]), a.dim)), failures)
    return StrongInnerE2Result(None, failures)


# ---------------------------------------------------------------------------
# Conversion between YD structures over H₄ and modules over D(H₄)
# ---------------------------------------------------------------------------


def yd_to_double(a: YDObject, double: HopfAlgebra) -> YDObject:
    """Make a YD H₄-algebra into a D(H₄)-module algebra.

    1⋈l acts as l; (f⋈1)·m = m₍₀₎ f(m₍₁₎); general basis elements are the
    composites (f⋈1)(1⋈l), over D_a·D_c.
    """
    _built_on(a.hopf, a, action=a.int_images, coaction=a.int_rho)
    n = a.hopf.dim
    (den_a, rows), (den_c, rho) = a.int_images, a.int_rho
    # (f_i⋈e_j)·e_b = Σ_q (e_j·e_b)_q·Σ c·e_p over the (p, i, c) of ρ(e_q)
    images = [
        [
            sparse_sum((v * c, {p: 1}) for q, v in row[j].items() for p, k, c in rho[q] if k == i)
            for i in range(n)
            for j in range(n)
        ]
        for row in rows
    ]
    return YDObject.from_int(double, a.dim, a.alg, (den_a * den_c, images))


def double_to_yd(a: YDObject, h: HopfAlgebra) -> YDObject:
    """Inverse conversion: restrict to 1⋈H₄ and rebuild the coaction by
    pairing with the dual basis, ρ(m) = Σᵢ ((e_i*⋈1)·m) ⊗ e_i.

    1⋈e_j = Σ_i ε(e_i)(e_i*⋈e_j), since the counit of H is the unit of H*,
    and e_i*⋈1 = Σ_j 1_j·(e_i*⋈e_j): the action over D_a·D_ε, ρ over D_a·D_u.
    """
    n = h.dim
    den_a, rows = a.int_images
    (den_e, counit), (den_u, unit) = h.int_counit, h.alg.int_unit
    images = [[sparse_sum((e, row[i * n + j]) for i, e in counit.items()) for j in range(n)] for row in rows]
    rho = [
        [(p, i, v) for i in range(n) for p, v in sparse_sum((u, row[i * n + j]) for j, u in unit.items()).items()]
        for row in rows
    ]
    return YDObject.from_int(h, a.dim, a.alg, (den_a * den_e, images), (den_a * den_u, rho))


def module_tensor(m: YDObject, w: YDObject) -> YDObject:
    """Tensor product of two H-modules via Δ (left factor major)."""
    h = m.hopf
    for x in (m, w):
        _built_on(h, x, action=x.int_images)
    den_d, cop = h.int_cop
    (den_m, m_images), (den_w, w_images) = m.int_images, w.int_images
    images = [
        [
            sparse_sum((c, _tensor(m_images[x][p].items(), w_images[y][q].items(), w.dim)) for p, q, c in cop[i])
            for i in range(h.dim)
        ]
        for x in range(m.dim)
        for y in range(w.dim)
    ]
    return YDObject.from_int(h, m.dim * w.dim, images=(den_d * den_m * den_w, images))
