"""Hopf algebras as structure-constant data.

A Hopf algebra is a :class:`~hopfbrauer.algebra.StructureAlgebra` with a
coproduct, a counit vector and an antipode S with its inverse, ε, Δ, S and
S⁻¹ stored as integers, the one form, built by ``HopfAlgebra.from_int``;
``defio`` reads and writes it over ℚ. These stores and R, R⁻¹ pass
``algebra.int_content``; the dense rows of r, r⁻¹ and σ pass
``_lowest_rows``. The module checks axioms and builds duals, Drinfeld
doubles with their canonical R, (co)quasitriangular structures and Hopf
morphisms.

Elements of H ⊗ H and H ⊗ H ⊗ H are sparse dicts keyed by index tuples,
left factor major. Their products (``_t2_int``, ``_t3_int``), the Hopf and
(co)quasitriangular checks and the builders run on integers: each operand
times its least common denominator, contracted on ``int_sp`` (the product
over D_m) and ``int_cop`` (Δ over D_Δ), compared over a known scale or
divided once per entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .algebra import (
    CheckReport,
    StructureAlgebra,
    check_algebra_axioms,
    int_content,
    on_generators,
)
from .linalg import (
    IntVec,
    Matrix,
    SparseVec,
    dense_vec,
    scale_sparse,
    scaled,
    solve_sparse,
    sparse_sum,
    sparse_vec,
    vec,
)


class HopfAlgebra:
    """A Hopf algebra on the basis of ``alg``. The state is ``int_cop`` = (D_Δ,
    rows[i] = D_Δ·Δ(e_i) as (p, q, c) for c·e_p ⊗ e_q), ``int_counit`` = (D, D·ε)
    and ``int_s``, ``int_s_inv`` = (D, cols[j] = D·S(e_j), D·S⁻¹(e_j)), each D
    minimal, written by ``from_int``, the one constructor."""

    @classmethod
    def from_int(cls, alg: StructureAlgebra, cop: tuple[int, Sequence], counit: tuple[int, IntVec],
                 antipode: tuple[int, Sequence[IntVec]], antipode_inv: tuple[int, Sequence[IntVec]],
                 name: str = "", meta: dict | None = None) -> "HopfAlgebra":
        """The Hopf algebra with Δ(e_i) = Σ (c/D)·e_p ⊗ e_q over the (p, q, c) of
        rows[i] for cop = (D, rows), S(e_j) = Σ (c/D)·e_k over the {k: c} of
        cols[j] for antipode = (D, cols), ε for counit = (D, {k: c}) and S⁻¹
        likewise. ``int_content`` checks the terms of each store, sorts them
        and divides the store by the gcd of D and every c; ``ValueError``
        names a column that is not a dict."""
        n = alg.dim
        den, rows = cop
        if len(rows) != n:
            raise ValueError("coproduct table has wrong length")
        cop = int_content(den, rows, n, n)
        if len(counit) != 2 or not isinstance(counit[1], dict):
            raise ValueError(f"counit must be (scale, {{index: int}}), not {counit!r}")
        den_e, (counit,) = int_content(counit[0], [counit[1].items()], n)
        h = cls.__new__(cls)
        h.alg, h.dim, h.name, h.meta = alg, n, name or alg.name, dict(meta or {})
        h.int_counit, h.int_cop = (den_e, dict(counit)), cop
        for attr, label, (den, cols) in (("int_s", "antipode", antipode), ("int_s_inv", "antipode_inv", antipode_inv)):
            if len(cols) != n:
                raise ValueError(f"{label} has {len(cols)} columns, expected {n}×{n}")
            for j, col in enumerate(cols):
                if not isinstance(col, dict):
                    raise ValueError(f"{label} column {j} must be {{index: int}}, not {col!r}")
            den, cols = int_content(den, [col.items() for col in cols], n)
            setattr(h, attr, (den, [dict(col) for col in cols]))
        return h

    @cached_property
    def int_cop2(self) -> tuple[int, list[tuple[tuple[int, int, int, int], ...]]]:
        """(D_Δ², rows): rows[i] is (Δ⊗id)Δ(e_i) as (l1, l2, l3, c) terms, c
        an integer over D_Δ², contracted on ``int_cop`` on first use."""
        den, cop = self.int_cop
        rows = [sparse_sum((c, {(u, v, q): d for u, v, d in cop[p]}) for p, q, c in row) for row in cop]
        return den * den, [tuple((*key, c) for key, c in row.items()) for row in rows]

    @cached_property
    def coalgebra_failures(self) -> list[str]:
        """The coassociativity and counit messages of ``check_hopf_axioms``,
        on ``int_cop2``, ``int_cop`` and ``int_counit``."""
        den_d, cop = self.int_cop
        den_e, counit = self.int_counit
        basis, out = self.alg.basis, []
        for i, left in enumerate(self.int_cop2[1]):
            right = sparse_sum((c, {(p, u, v): d for u, v, d in cop[q]}) for p, q, c in cop[i])
            if {t[:3]: t[3] for t in left} != right:
                out.append(f"coassociativity fails at {basis[i]}")
        for i, b in enumerate(basis):
            for side, k in (("ε⊗id", 0), ("id⊗ε", 1)):
                image = sparse_sum((t[2] * counit[t[k]], {t[1 - k]: 1}) for t in cop[i] if t[k] in counit)
                if image != {i: den_d * den_e}:
                    out.append(f"({side})Δ fails at {b}")
        return out

    @cached_property
    def certified(self) -> bool:
        """Whether ``check_hopf_axioms`` passes; each completed check records it."""
        return check_hopf_axioms(self).ok

    def same_coproduct(self, other: "HopfAlgebra") -> bool:
        """Equal coproducts, compared on the integer stores."""
        return self.int_cop == other.int_cop

    def __repr__(self) -> str:
        return f"HopfAlgebra({self.name or 'unnamed'}, dim={self.dim})"


# ---------------------------------------------------------------------------
# Tensor-square / tensor-cube element helpers (sparse dicts)
# ---------------------------------------------------------------------------


def t2_from_vec(x: Sequence[Fraction], dim: int) -> dict[tuple[int, int], Fraction]:
    return {(k // dim, k % dim): c for k, c in enumerate(x) if c}


def _t2_int(sp, x: dict, y: dict) -> dict:
    """Σ x_ij·y_kl·(e_i e_k) ⊗ (e_j e_l) for integer x, y keyed by (i, j), read
    from the integer table sp of ``int_sp``: D_m²·(x·y). Entries that cancel
    are dropped."""
    out: dict[tuple[int, int], int] = {}
    ys = list(y.items())
    for (i, j), c in x.items():
        spi, spj = sp[i], sp[j]
        for (k, l), d in ys:
            right = spj[l]
            if not right:
                continue
            coef = c * d
            for p, cp in spi[k]:
                a = coef * cp
                for q, cq in right:
                    key = (p, q)
                    out[key] = out.get(key, 0) + a * cq
    return {key: v for key, v in out.items() if v}


def _t3_int(sp, x: dict, y: dict) -> dict:
    """D_m³·(x·y) for integer x, y keyed by (i, j, m), as ``_t2_int``."""
    out: dict[tuple[int, int, int], int] = {}
    ys = list(y.items())
    for (i, j, m), c in x.items():
        spi, spj, spm = sp[i], sp[j], sp[m]
        for (k, l, n), d in ys:
            mid, last = spj[l], spm[n]
            if not mid or not last:
                continue
            coef = c * d
            for p, cp in spi[k]:
                a = coef * cp
                for q, cq in mid:
                    b = a * cq
                    for r, cr in last:
                        key = (p, q, r)
                        out[key] = out.get(key, 0) + b * cr
    return {key: v for key, v in out.items() if v}


def _t2_unit(unit: dict, scale: int) -> dict[tuple[int, int], int]:
    return {(i, j): scale * a * b for i, a in unit.items() for j, b in unit.items()}


def _is_one(alg: StructureAlgebra, x: dict, y: dict, den: int) -> bool:
    """Whether x·y = 1⊗1 for integer x, y in H⊗H with x·y over den."""
    den_m, sp = alg.int_sp
    den_u, unit = alg.int_unit
    return scale_sparse(_t2_int(sp, x, y), den_u * den_u) == _t2_unit(unit, den * den_m * den_m)


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


def check_hopf_axioms(h: HopfAlgebra) -> CheckReport:
    """Itemized verification of all Hopf axiom families, exactly.

    Δ- and ε-multiplicativity and the antipode laws (``antipode_failures``)
    compare integer sides over known scales, contracted on ``int_sp``;
    messages name the basis elements where an identity fails. Δ- and
    ε-multiplicativity share one ``on_generators`` loop, given Δ(1) = 1⊗1
    and ε(1) = 1."""
    rep = CheckReport(f"Hopf axioms ({h.name or 'unnamed'})")
    alg = h.alg
    n = h.dim

    rep.merge(check_algebra_axioms(alg))
    rep.failures += h.coalgebra_failures

    # Δ and ε are algebra maps. With Δ over D_Δ and ε over D_ε as integers,
    # D_Δ·D_m·Δ(e_i e_j) = Δ(e_i)·Δ(e_j) over D_Δ²·D_m², and
    # D_ε·ε(e_i e_j) = ε(e_i)·ε(e_j) over D_ε²·D_m; Δ(1) over D_u·D_Δ
    den_m, sp = alg.int_sp
    den_d, cop = h.int_cop
    (den_u, unit), (den_e, counit) = alg.int_unit, h.int_counit
    cop_unit = sparse_sum((den_u * u, {(p, q): c for p, q, c in cop[i]}) for i, u in unit.items())
    ok = rep.require(cop_unit == _t2_unit(unit, den_d), "Δ(1) ≠ 1⊗1")
    ok = rep.require(sum(c * counit.get(k, 0) for k, c in unit.items()) == den_u * den_e, "ε(1) ≠ 1") and ok
    cops = [{(p, q): c for p, q, c in row} for row in cop]
    lift = den_d * den_m

    def multiplicative(idx):
        for i in idx:
            for j in range(n):
                prod = sp[i][j]
                d_prod: dict[tuple[int, int], int] = {}
                for k, c in prod:
                    c *= lift
                    for key, d in cops[k].items():
                        d_prod[key] = d_prod.get(key, 0) + c * d
                if {key: v for key, v in d_prod.items() if v} != _t2_int(sp, cops[i], cops[j]):
                    yield f"Δ not multiplicative at ({alg.basis[i]},{alg.basis[j]})"
                if den_e * sum(c * counit.get(k, 0) for k, c in prod) != den_m * counit.get(i, 0) * counit.get(j, 0):
                    yield f"ε not multiplicative at ({alg.basis[i]},{alg.basis[j]})"

    rep.failures += on_generators(multiplicative, alg, ok)

    rep.failures += antipode_failures(h)
    h.certified = rep.ok
    return rep


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


def dual_hopf(h: HopfAlgebra) -> HopfAlgebra:
    """H* on the dual basis: mult = Δᵀ, coproduct = multᵀ, antipode = Sᵀ, on
    the integer stores."""
    n = h.dim
    den_d, rows = h.int_cop
    table = [[[] for _ in range(n)] for _ in range(n)]
    for m, row in enumerate(rows):
        for p, q, c in row:
            table[p][q].append((m, c))
    basis = [b + "*" for b in h.alg.basis]
    alg = StructureAlgebra.from_int(basis, h.int_counit, table, den_d, name=(h.name or "H") + "*")
    den_m, sp = h.alg.int_sp
    cop = [[] for _ in range(n)]
    for u, row in enumerate(sp):
        for v, terms in enumerate(row):
            for i, c in terms:
                cop[i].append((u, v, c))
    s, s_inv = (
        (den, [{j: col[i] for j, col in enumerate(cols) if i in col} for i in range(n)])
        for den, cols in (h.int_s, h.int_s_inv)
    )
    return HopfAlgebra.from_int(alg, (den_m, cop), h.alg.int_unit, s, s_inv, name=alg.name)


# ---------------------------------------------------------------------------
# Antipode reconstruction
# ---------------------------------------------------------------------------


def antipode_from_bialgebra(alg: StructureAlgebra, cop: tuple[int, Sequence], counit: tuple[int, IntVec]) -> Matrix:
    """Solve m(S⊗id)Δ = uε for S as a linear system, Δ and ε given as the
    integer stores (``int_cop``, ``int_counit``) of a bialgebra on ``alg``.

    The antipode, when it exists, is the unique convolution inverse of the
    identity, so this pins S without committing to any book's sign
    convention. Raises if the bialgebra is not Hopf. ``drinfeld_double``
    writes its antipode in closed form instead; the tests compare the two.
    """
    n = alg.dim
    (den_d, cop), (den_e, counit) = cop, counit
    den_m, sp = alg.int_sp
    den_u, unit = alg.int_unit
    # row (z, w) over D_Δ·D_m: Σ c·c_w·S_pu over the (u, v, c) of Δ(e_z) and
    # the (w, c_w) of e_p·e_v, against ε(e_z)·1_w
    rows: list[IntVec] = []
    rhs: list[Fraction] = []
    for z in range(n):
        eqs: list[IntVec] = [{} for _ in range(n)]
        for u, v, c in cop[z]:
            for p in range(n):
                unknown = u * n + p
                for w, cw in sp[p][v]:
                    eqs[w][unknown] = eqs[w].get(unknown, 0) + c * cw
        for w in range(n):
            rows.append({k: x for k, x in eqs[w].items() if x})
            rhs.append(Fraction(counit.get(z, 0) * unit.get(w, 0) * den_d * den_m, den_e * den_u))
    sol = solve_sparse(rows, rhs, n * n)
    if sol.particular is None:
        raise ValueError("no antipode: bialgebra is not Hopf")
    s = Matrix([[sol.particular[u * n + p] for u in range(n)] for p in range(n)])
    # verify the right antipode law, which is not part of the solve: both
    # sides over D_Δ·D_m·D_S·D_ε·D_u
    den_s, cols = s.scaled_cols()
    for z in range(n):
        acc: IntVec = {}
        for u, v, c in cop[z]:
            alg.mul_int({u: c * den_e * den_u}, cols[v], acc)
        e = counit.get(z, 0) * den_d * den_m * den_s
        if acc != {k: e * x for k, x in unit.items() if e}:
            raise ValueError("left convolution inverse of id is not two-sided")
    return s


# ---------------------------------------------------------------------------
# Drinfeld double
# ---------------------------------------------------------------------------


def drinfeld_double(h: HopfAlgebra) -> tuple[HopfAlgebra, "QTStructure"]:
    """D(H) = H^{*,cop} ⋈ H with its canonical quasitriangular element.

    Basis f_i ⋈ e_j at flat index i·n + j. Multiplication:
        (f ⋈ a)(f' ⋈ a') = f · (a₍₁₎ ⇀ f' ↼ S⁻¹(a₍₃₎)) ⋈ a₍₂₎ a'
    with (a ⇀ f)(x) = f(xa) and (f ↼ a)(x) = f(ax).

    The antipode and the inverse of R = Σ (ε ⋈ e_i) ⊗ (f_i ⋈ 1) are written
    in closed form (Kassel, *Quantum Groups*, Ch. IX):
        S(f ⋈ a) = (ε ⋈ S a)(S_{H*cop} f ⋈ 1),   R⁻¹ = (S ⊗ id)R,
    where S_{H*cop} is the inverse of the antipode of H*, and S⁻¹ likewise
    from S_H⁻¹ and S_{H*}. Both are unique and verified exactly (the
    convolution laws, S∘S⁻¹ = id = S⁻¹∘S, R·R⁻¹ = 1⊗1 = R⁻¹·R); a failure
    raises ValueError. The tables are written as integers for ``from_int``.
    """
    hd = dual_hopf(h)
    ha, da = h.alg, hd.alg
    n = h.dim
    big = n * n
    den_h, sp_h = ha.int_sp

    basis = [f"{da.basis[i]}⋈{ha.basis[j]}" for i in range(n) for j in range(n)]
    (den_e, eps_i), (den_u, unit_i) = da.int_unit, ha.int_unit

    # lam[(p, r, i2)] = {m: [e_i2] S⁻¹(e_r)·e_m·e_p}, the functional
    # e_p ⇀ f_i2 ↼ S⁻¹(e_r) on the basis of H, as integers over D_s·D_h²
    # (S⁻¹ over D_s, the product of H over D_h)
    den_s, sinv = h.int_s_inv
    lam: dict[tuple[int, int, int], IntVec] = {}
    for r in range(n):
        for m in range(n):
            left = ha.mul_int(sinv[r], {m: 1})
            for p in range(n):
                for i2, c in ha.mul_int(left, {p: 1}).items():
                    lam.setdefault((p, r, i2), {})[m] = c

    # (Δ⊗id)Δ over D_w; each constant of the double is then an integer over
    # D_w·D_s·D_h³·D_d (the product of H* over D_d), divided once below
    den_w, sw2 = h.int_cop2
    table: list[list[IntVec]] = [[{} for _ in range(big)] for _ in range(big)]
    for j in range(n):
        for i2 in range(n):
            terms = [(q, c, lam[(p, r, i2)]) for p, q, r, c in sw2[j] if (p, r, i2) in lam]
            for i in range(n):
                # Σ c·(f_i · lam) over the Sweedler terms, collected by e_q
                fparts: dict[int, IntVec] = {}
                for q, c, lm in terms:
                    da.mul_int({i: c}, lm, fparts.setdefault(q, {}))
                row = table[i * n + j]
                for j2 in range(n):
                    out = row[i2 * n + j2]
                    for q, fpart in fparts.items():
                        hq = sp_h[q][j2]
                        for wi, fv in fpart.items():
                            base = wi * n
                            for hj, hv in hq:
                                k = base + hj
                                out[k] = out[k] + fv * hv if k in out else fv * hv
    alg = StructureAlgebra.from_int(
        basis,
        (den_e * den_u, _bowtie(n, eps_i, unit_i)),
        # sums that cancelled to zero are dropped: from_int rejects zero terms
        [[[t for t in out.items() if t[1]] for out in row] for row in table],
        den_w * den_s * den_h**3 * da.int_sp[0],
        name=f"D({h.name or 'H'})",
    )

    # Δ(f ⋈ a) = (f₍₂₎ ⋈ a₍₁₎) ⊗ (f₍₁₎ ⋈ a₍₂₎), Δ of H* on f, over D_Δ*·D_Δ;
    # each (u, v, p, q) fills its own slot, so no two triples share an index
    (den_f, fcop), (den_a, acop) = hd.int_cop, h.int_cop
    cop = [
        [(v * n + p, u * n + q, cuv * cpq) for u, v, cuv in fcop[i] for p, q, cpq in acop[j]]
        for i in range(n)
        for j in range(n)
    ]
    (den_fe, fcounit), (den_ae, acounit) = hd.int_counit, h.int_counit
    counit = den_fe * den_ae, _bowtie(n, fcounit, acounit)

    def closed_antipode(s_h: tuple, s_dual: tuple) -> tuple[int, list[IntVec]]:
        # column i·n + j is (ε ⋈ s_h e_j)(s_dual f_i ⋈ 1), over D_ε·D_l·D_r·D_u·D_m
        lefts = [_bowtie(n, eps_i, col) for col in s_h[1]]
        rights = [_bowtie(n, col, unit_i) for col in s_dual[1]]
        scale = den_e * s_h[0] * s_dual[0] * den_u * alg.int_sp[0]
        return scale, [alg.mul_int(lefts[j], rights[i]) for i in range(n) for j in range(n)]

    s, s_inv = closed_antipode(h.int_s, hd.int_s_inv), closed_antipode(h.int_s_inv, hd.int_s)
    meta = {"double_of": h.name or "H", "factor_dim": n}
    double = HopfAlgebra.from_int(alg, (den_f * den_a, cop), counit, s, s_inv, name=alg.name, meta=meta)
    failure = next(antipode_failures(double), None)
    if failure:
        raise ValueError(f"{alg.name}: closed-form antipode fails: {failure}")

    # R over D_ε·D_u
    r = {(m * n + i, i * n + j): a * b for i in range(n) for m, a in eps_i.items() for j, b in unit_i.items()}
    return double, _qt_from_int(double, den_e * den_u, r)


def _bowtie(n: int, f: SparseVec, a: SparseVec) -> SparseVec:
    """f ⋈ a inside D(H) from the sparse dual and algebra parts."""
    return {i * n + j: x * y for i, x in f.items() for j, y in a.items()}


def antipode_failures(h: HopfAlgebra) -> Iterator[str]:
    """Yield "m(S⊗id)Δ fails at b", then "m(id⊗S)Δ fails at b", for each
    basis element b where that law misses ε(b)·1, then "S∘S⁻¹ ≠ id" and
    "S⁻¹∘S ≠ id" if they fail. On integers: with S, S⁻¹, Δ, ε and 1 over
    D_S, D_T, D_Δ, D_ε and D_u, D_ε·D_u·Σ C·(S_u·e_v) over D_S·D_Δ·D_m must
    be D_S·D_Δ·D_m·E_z·U, and Σ T_kz·S_k (S∘S⁻¹ at e_z) must be D_S·D_T·e_z."""
    alg = h.alg
    (den_s, s), (den_t, t) = h.int_s, h.int_s_inv
    den_d, cop = h.int_cop
    (den_e, counit), (den_u, unit) = h.int_counit, alg.int_unit
    lift = den_e * den_u
    target_scale = den_s * den_d * alg.int_sp[0]
    for z, b in enumerate(alg.basis):
        left: IntVec = {}
        right: IntVec = {}
        for u, v, c in cop[z]:
            alg.mul_int(s[u], {v: c}, left)
            alg.mul_int({u: c}, s[v], right)
        e = counit.get(z, 0) * target_scale
        target = {k: e * x for k, x in unit.items()} if e else {}
        for side, acc in (("m(S⊗id)Δ", left), ("m(id⊗S)Δ", right)):
            if {k: lift * x for k, x in acc.items()} != target:
                yield f"{side} fails at {b}"
    one = den_s * den_t
    for x, y, label in ((s, t, "S∘S⁻¹"), (t, s, "S⁻¹∘S")):
        if any(sparse_sum((c, x[k]) for k, c in y[z].items()) != {z: one} for z in range(h.dim)):
            yield f"{label} ≠ id"


def bowtie_vec(double_dim_factor: int, fvec: Sequence[Fraction], avec: Sequence[Fraction]) -> list[Fraction]:
    """Coefficient vector of f ⋈ a inside D(H), given dual/algebra parts."""
    n = double_dim_factor
    return dense_vec(_bowtie(n, sparse_vec(fvec), sparse_vec(avec)), n * n)


# ---------------------------------------------------------------------------
# Quasitriangular structures
# ---------------------------------------------------------------------------


class QTStructure:
    """R and R⁻¹ in H⊗H, stored as ``int_pairs`` and ``int_inv`` = (D, {(i, j):
    D·c}), D the least common denominator and the keys in index order; the
    constructor takes (D, {(i, j): int}) pairs over any D > 0, checked and
    reduced by ``int_content`` (``ValueError`` names a bad scale or term, or
    an element that is not a dict)."""

    def __init__(self, hopf: HopfAlgebra, r: tuple[int, dict], r_inv: tuple[int, dict]):
        self.hopf = hopf
        self.int_pairs, self.int_inv = _int_pairs(*r, hopf.dim), _int_pairs(*r_inv, hopf.dim, "R⁻¹")


def _int_pairs(den: int, v: dict, n: int, label: str = "R") -> tuple[int, dict]:
    """An element v/den of H⊗H, v = {(i, j): int}, as ``int_content`` stores
    it, in the {(i, j): c} container of ``int_pairs``; a key k that is no
    pair goes in as the pair (k, None), so the rule names it."""
    if not isinstance(v, dict):
        raise ValueError(f"{label} must be {{(i, j): int}}, not {v!r}")
    den, (terms,) = int_content(den, [[(*k, c) if type(k) is tuple and len(k) == 2 else (k, None, c)
                                       for k, c in v.items()]], n, n)
    return den, {(i, j): c for i, j, c in terms}


def _qt_from_int(h: HopfAlgebra, den: int, r: dict) -> QTStructure:
    """R = r/den in H⊗H, r integer keyed (i, j), with R⁻¹ = (S⊗id)R, the
    inverse of every quasitriangular R (Kassel, *Quantum Groups*, VIII.2),
    over den·D_S; ``ValueError`` unless R·R⁻¹ = 1⊗1 = R⁻¹·R exactly."""
    den_s, s = h.int_s
    r_inv = sparse_sum((c, {(k, j): v for k, v in s[i].items()}) for (i, j), c in r.items())
    one = den * den * den_s
    if not (_is_one(h.alg, r, r_inv, one) and _is_one(h.alg, r_inv, r, one)):
        raise ValueError(f"{h.name}: (S⊗id)R is not the inverse of R")
    return QTStructure(h, (den, r), (den * den_s, r_inv))


def qt_structure(h: HopfAlgebra, rvec: Sequence[Fraction]) -> QTStructure:
    """Wrap an element R of H⊗H, given by its dim² coefficients (``ValueError``
    otherwise), with R⁻¹ = (S⊗id)R, checked by ``_qt_from_int``: an R that is
    not quasitriangular may have another inverse, and is refused."""
    n = h.dim
    v = vec(rvec)
    if len(v) != n * n:
        raise ValueError(f"R has {len(v)} entries, expected dim² = {n * n}")
    r, den = scaled(t2_from_vec(v, n))
    return _qt_from_int(h, den, r)


def check_quasitriangular(h: HopfAlgebra, rt: QTStructure) -> CheckReport:
    """All quasitriangular axioms, exactly; data["triangular"] = (R₂₁ = R⁻¹).

    On integers: R over D_R (``int_pairs``), R⁻¹ over D_I (``int_inv``), Δ
    over D_Δ, 1 and ε over D_u and D_ε, products over D_m, both sides lifted
    to one scale."""
    rep = CheckReport(f"quasitriangular ({h.name})")
    alg = h.alg
    den_r, r = rt.int_pairs
    den_m, sp = alg.int_sp
    den_d, cop = h.int_cop
    (den_u, unit), (den_e, counit) = alg.int_unit, h.int_counit

    # (ε⊗id)R and (id⊗ε)R over D_R·D_ε against 1 over D_u
    one = scale_sparse(unit, den_r * den_e)
    for label, k in (("(ε⊗id)R ≠ 1", 0), ("(id⊗ε)R ≠ 1", 1)):
        image = sparse_sum((den_u * c * counit[key[k]], {key[1 - k]: 1}) for key, c in r.items() if key[k] in counit)
        rep.require(image == one, label)

    # (Δ⊗id)R and (id⊗Δ)R over D_R·D_Δ against R₁₃R₂₃ and R₁₃R₁₂ over
    # (D_R·D_u)²·D_m³, R₁₃, R₂₃ and R₁₂ over D_R·D_u
    r13 = {(i, k, j): c * u for (i, j), c in r.items() for k, u in unit.items()}
    r23 = {(k, i, j): c * u for (i, j), c in r.items() for k, u in unit.items()}
    r12 = {(i, j, k): c * u for (i, j), c in r.items() for k, u in unit.items()}
    lift = den_r * den_u * den_u * den_m**3
    lhs = sparse_sum((c * lift, {(p, q, j): d for p, q, d in cop[i]}) for (i, j), c in r.items())
    rep.require(lhs == scale_sparse(_t3_int(sp, r13, r23), den_d), "(Δ⊗id)R ≠ R₁₃R₂₃")
    lhs = sparse_sum((c * lift, {(i, p, q): d for p, q, d in cop[j]}) for (i, j), c in r.items())
    rep.require(lhs == scale_sparse(_t3_int(sp, r13, r12), den_d), "(id⊗Δ)R ≠ R₁₃R₁₂")

    # both sides of R·Δ(e_z) = Δ^cop(e_z)·R are integers over D_R·D_Δ·D_m²
    for z, terms in enumerate(cop):
        rep.require(
            _t2_int(sp, r, {(p, q): c for p, q, c in terms}) == _t2_int(sp, {(q, p): c for p, q, c in terms}, r),
            f"R·Δ ≠ Δ^cop·R at {alg.basis[z]}",
        )

    den_i, rinv = rt.int_inv
    rep.require(_is_one(alg, r, rinv, den_r * den_i), "R·R⁻¹ ≠ 1⊗1")
    # two reduced integer forms are equal exactly when their values are
    rep.data["triangular"] = den_r == den_i and {(j, i): c for (i, j), c in r.items()} == rinv
    return rep


# ---------------------------------------------------------------------------
# Coquasitriangular structures
# ---------------------------------------------------------------------------


IntTable = tuple[int, list[list[int]]]  # (D, D·r as integer rows)


class CoQTStructure:
    """r and r⁻¹ on H, stored as ``int_table`` and ``int_inv`` in lowest
    terms."""

    def __init__(self, hopf: HopfAlgebra, form: IntTable, form_inv: IntTable):
        self.hopf = hopf
        self.int_table, self.int_inv = _lowest_rows(form, hopf.dim, "r"), _lowest_rows(form_inv, hopf.dim, "r⁻¹")


def _lowest_rows(form: IntTable, n: int, label: str) -> IntTable:
    """(den, rows) divided by the gcd of den and every entry; ``ValueError``
    unless den is a positive int and rows n × n ints."""
    den, rows = form
    if type(den) is not int or den <= 0:
        raise ValueError(f"{label}: scale {den!r} is not a positive int")
    shape = [len(row) for row in rows]
    if shape != [n] * n:
        raise ValueError(f"{label} has row lengths {shape}, expected {n}×{n}")
    if any(type(v) is not int for row in rows for v in row):
        raise ValueError(f"{label} has an entry that is not an int")
    g = math.gcd(den, *(v for row in rows for v in row))
    return den // g, [[v // g for v in row] for row in rows]


def form_products(h: HopfAlgebra, form: list[list[int]], x: int, y: int, flip: bool) -> tuple[IntVec, IntVec]:
    """r(x₍₁₎⊗y₍₁₎)·x₍₂₎y₍₂₎ and x₍₁₎y₍₁₎·r(x₍₂₎⊗y₍₂₎) (y₍₁₎x₍₁₎ if ``flip``) for
    basis elements x, y and integer rows r over D_r: integers over D_Δ²·D_r·D_m."""
    cop, mul = h.int_cop[1], h.alg.mul_int
    lhs: IntVec = {}
    rhs: IntVec = {}
    for p, q, c in cop[x]:
        for u, v, d in cop[y]:
            if form[p][u]:
                mul({q: c * d * form[p][u]}, {v: 1}, lhs)
            if form[q][v]:
                left, right = (u, p) if flip else (p, u)
                mul({left: c * d * form[q][v]}, {right: 1}, rhs)
    return lhs, rhs


def _inverse_failures(h: HopfAlgebra, form: IntTable, form_inv: IntTable):
    """Yield each (x, y) where r⁻¹ * r or r * r⁻¹ is not ε⊗ε at e_x ⊗ e_y, for
    r and r⁻¹ as integer rows (D, rows), (a * b)(x⊗y) = Σ a(x₍₁₎⊗y₍₁₎)·b(x₍₂₎⊗y₍₂₎)
    compared as integers: over D_Δ²·D_r·D_i, against ε(x)ε(y) over D_ε²."""
    den_d, cop = h.int_cop
    (den_r, r), (den_i, ri) = form, form_inv
    den_e, counit = h.int_counit
    scale = den_d * den_d * den_r * den_i
    for x in range(h.dim):
        for y in range(h.dim):
            left = right = 0
            for p, q, c in cop[x]:
                for u, v, d in cop[y]:
                    left += c * d * ri[p][u] * r[q][v]
                    right += c * d * r[p][u] * ri[q][v]
            want = counit.get(x, 0) * counit.get(y, 0) * scale
            if left * den_e * den_e != want or right * den_e * den_e != want:
                yield x, y


def coqt_structure(h: HopfAlgebra, form: IntTable) -> CoQTStructure:
    """Wrap a bilinear form r on H, given as (D_r, D_r·r as dim × dim integer
    rows; ``ValueError`` otherwise), with r⁻¹(x⊗y) = r(S x ⊗ y), the
    convolution inverse of every coquasitriangular r, over D_r·D_S;
    ``ValueError`` unless r⁻¹ * r = ε⊗ε = r * r⁻¹ exactly."""
    n = h.dim
    den_r, r = form = _lowest_rows(form, n, "r")
    den_s, s = h.int_s
    inv = [[sum(c * r[k][y] for k, c in s[x].items()) for y in range(n)] for x in range(n)]
    inv = (den_r * den_s, inv)
    if any(_inverse_failures(h, form, inv)):
        raise ValueError("r∘(S⊗id) is not the convolution inverse of r")
    return CoQTStructure(h, form, inv)


def check_coquasitriangular(h: HopfAlgebra, ct: CoQTStructure) -> CheckReport:
    """Coquasitriangular axioms on basis triples; data["cotriangular"].

    Compared on integers, r over D_r (``int_table``): r(ab⊗c) and r(a⊗bc)
    over D_m·D_r against r(a⊗c₍₁₎)r(b⊗c₍₂₎) and r(a₍₁₎⊗c)r(a₍₂₎⊗b) over
    D_Δ·D_r², each lifted by the other's scale; the r-commutation by
    ``form_products``. Messages are formatted only for failures.
    """
    rep = CheckReport(f"coquasitriangular ({h.name})")
    n = h.dim
    alg = h.alg
    basis = alg.basis
    den_m, sp = alg.int_sp
    den_d, cop = h.int_cop
    den_r, r = ct.int_table
    (den_u, unit), (den_e, counit) = alg.int_unit, h.int_counit

    for x in range(n):
        want = den_u * den_r * counit.get(x, 0)
        if den_e * sum(a * r[i][x] for i, a in unit.items()) != want:
            rep.failures.append(f"r(1⊗{basis[x]}) ≠ ε")
        if den_e * sum(a * r[x][i] for i, a in unit.items()) != want:
            rep.failures.append(f"r({basis[x]}⊗1) ≠ ε")

    lift = den_d * den_r
    for u in range(n):
        ru = r[u]
        for v in range(n):
            rv, prod_uv = r[v], sp[u][v]
            for w in range(n):
                lhs = sum(c * r[k][w] for k, c in prod_uv)
                rhs = sum(d * ru[p] * rv[q] for p, q, d in cop[w])
                if lhs * lift != rhs * den_m:
                    rep.failures.append(f"r(ab⊗c) axiom fails at ({basis[u]},{basis[v]},{basis[w]})")
                lhs = sum(c * ru[k] for k, c in sp[v][w])
                rhs = sum(d * r[p][w] * r[q][v] for p, q, d in cop[u])
                if lhs * lift != rhs * den_m:
                    rep.failures.append(f"r(a⊗bc) axiom fails at ({basis[u]},{basis[v]},{basis[w]})")

    for x in range(n):
        for y in range(n):
            lhs, rhs = form_products(h, r, x, y, flip=True)
            if lhs != rhs:
                rep.failures.append(f"r-commutation axiom fails at ({basis[x]},{basis[y]})")

    for x, y in _inverse_failures(h, ct.int_table, ct.int_inv):
        rep.failures.append(f"convolution inverse fails at ({x},{y})")

    rep.data["cotriangular"] = ct.int_inv == (den_r, [list(col) for col in zip(*r)])
    return rep


# ---------------------------------------------------------------------------
# Hopf morphisms
# ---------------------------------------------------------------------------


class HopfMorphism:
    def __init__(self, source: HopfAlgebra, target: HopfAlgebra, matrix: Matrix, name: str = ""):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("morphism matrix has wrong shape")
        self.source, self.target, self.matrix, self.name = source, target, matrix, name


def check_hopf_morphism(f: HopfMorphism) -> CheckReport:
    """Unit, product, counit, coproduct and antipode preserved, compared on
    integers: the columns F_i of ``f.matrix.scaled_cols()`` against each
    side's integer tables, the two sides of an identity lifted to one scale;
    a message is formatted only on failure."""
    rep = CheckReport(f"Hopf morphism ({f.name or f.source.name + '→' + f.target.name})")
    src, tgt = f.source, f.target
    basis = src.alg.basis
    den_f, cols = f.matrix.scaled_cols()

    def image(v: IntVec, scale: int, images=cols) -> IntVec:
        """scale·Σ v_k·images[k]."""
        return sparse_sum((scale * c, images[k]) for k, c in v.items())

    # f(1) over D_u·D_f against 1' over D_u'
    (den_u, unit), (den_ut, unit_t) = src.alg.int_unit, tgt.alg.int_unit
    rep.require(image(unit, den_ut) == scale_sparse(unit_t, den_u * den_f), "f(1) ≠ 1")
    # f(e_i e_j) over D_m·D_f against F_i·F_j over D_f²·D_m'
    den_m, sp = src.alg.int_sp
    lift = den_f * tgt.alg.int_sp[0]
    for i in range(src.dim):
        for j in range(src.dim):
            if image(dict(sp[i][j]), lift) != scale_sparse(tgt.alg.mul_int(cols[i], cols[j]), den_m):
                rep.failures.append(f"not an algebra map at ({basis[i]},{basis[j]})")
    (den_e, counit), (den_et, counit_t) = src.int_counit, tgt.int_counit
    den_d, cop = src.int_cop
    den_dt, cop_t = tgt.int_cop
    cops_t = [{(a, b): d for a, b, d in row} for row in cop_t]
    (den_s, s_src), (den_st, s_tgt) = src.int_s, tgt.int_s
    for i, fi in enumerate(cols):
        # ε'(f(e_i)) over D_f·D_ε' against ε(e_i) over D_ε
        if den_e * sum(c * counit_t.get(k, 0) for k, c in fi.items()) != den_f * den_et * counit.get(i, 0):
            rep.failures.append(f"counit not preserved at {basis[i]}")
        # (f⊗f)Δ(e_i) over D_Δ·D_f² against Δ'(f(e_i)) over D_f·D_Δ'
        lhs = sparse_sum(
            (den_dt * c, {(a, b): va * vb for a, va in cols[p].items() for b, vb in cols[q].items()})
            for p, q, c in cop[i]
        )
        if lhs != image(fi, den_d * den_f, cops_t):
            rep.failures.append(f"not a coalgebra map at {basis[i]}")
        # f(S(e_i)) over D_S·D_f against S'(f(e_i)) over D_f·D_S'
        if image(s_src[i], den_st) != image(fi, den_s, s_tgt):
            rep.failures.append(f"antipode not intertwined at {basis[i]}")
    return rep


def push_qt(f: HopfMorphism, rt: QTStructure) -> tuple[int, dict]:
    """(f ⊗ f)(R) in target ⊗ target for R of ``rt``, contracted on integers:
    ``rt.int_pairs`` over D_R and ``f.matrix.scaled_cols()`` over D_f, so the
    image is over D_R·D_f², returned reduced as ``int_pairs`` stores R."""
    den_f, cols = f.matrix.scaled_cols()
    den_r, r = rt.int_pairs
    out = sparse_sum(
        (c * va, {(a, b): vb for b, vb in cols[j].items()})
        for (i, j), c in r.items()
        for a, va in cols[i].items()
    )
    return _int_pairs(den_r * den_f * den_f, out, f.target.dim)
