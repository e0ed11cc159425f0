"""Hopf algebras as structure-constant data.

A Hopf algebra is a :class:`~hopfbrauer.algebra.StructureAlgebra` together
with a coproduct tensor Δ[i] ∈ k^{dim×dim}, a counit vector, and antipode
matrices S, S⁻¹. The module provides axiom checking, duals, Drinfeld
doubles with their canonical quasitriangular element, (co)quasitriangular
structure validation, and Hopf morphism checking.

Elements of H ⊗ H and H ⊗ H ⊗ H appearing in checks are handled as sparse
dicts keyed by index tuples; the flat basis ordering is left-factor major.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import CheckReport, StructureAlgebra, check_algebra_axioms
from .linalg import (
    Matrix,
    SparseVec,
    dense_vec,
    solve_sparse,
    sparse_sum,
    sparse_vec,
    vec,
    zero_vec,
)


class HopfAlgebra:
    def __init__(
        self,
        alg: StructureAlgebra,
        coproduct: Sequence[Sequence],
        counit: Sequence,
        antipode: Matrix,
        antipode_inv: Matrix | None = None,
        name: str = "",
        meta: dict | None = None,
    ):
        self.alg = alg
        self.dim = alg.dim
        self.cop = [vec(c) for c in coproduct]
        self.counit = vec(counit)
        self.antipode = antipode
        self.antipode_inv = antipode_inv if antipode_inv is not None else antipode.inverse()
        self.name = name or alg.name
        self.meta = dict(meta or {})
        if len(self.cop) != self.dim or any(len(c) != self.dim * self.dim for c in self.cop):
            raise ValueError("coproduct tensor has wrong shape")
        if len(self.counit) != self.dim:
            raise ValueError("counit vector has wrong length")
        n = self.dim
        self._spcop = [
            tuple((k // n, k % n, c) for k, c in enumerate(self.cop[i]) if c) for i in range(n)
        ]
        self._sw2: list[tuple[tuple[int, int, int, Fraction], ...]] | None = None

    # -- Sweedler expansions -------------------------------------------

    def cop_sparse(self, i: int) -> tuple[tuple[int, int, Fraction], ...]:
        """Δ(e_i) as sparse (left, right, coeff) triples."""
        return self._spcop[i]

    def cop_of_vec(self, x: Sequence[Fraction]) -> dict[tuple[int, int], Fraction]:
        out: dict[tuple[int, int], Fraction] = {}
        for i, xi in enumerate(x):
            if xi:
                for p, q, c in self._spcop[i]:
                    _acc(out, (p, q), xi * c)
        return out

    def sweedler2(self, i: int) -> tuple[tuple[int, int, int, Fraction], ...]:
        """(Δ ⊗ id)Δ(e_i) as sparse (l1, l2, l3, coeff) tuples."""
        if self._sw2 is None:
            table = []
            for z in range(self.dim):
                acc: dict[tuple[int, int, int], Fraction] = {}
                for p, q, c in self._spcop[z]:
                    for u, v, d in self._spcop[p]:
                        _acc(acc, (u, v, q), c * d)
                table.append(tuple((a, b, c_, v) for (a, b, c_), v in acc.items() if v))
            self._sw2 = table
        return self._sw2[i]

    def antipode_vec(self, x: Sequence[Fraction]) -> list[Fraction]:
        return self.antipode.apply(x)

    def counit_of(self, x: Sequence[Fraction]) -> Fraction:
        return sum((c * e for c, e in zip(x, self.counit)), Fraction(0))

    def __repr__(self) -> str:
        return f"HopfAlgebra({self.name or 'unnamed'}, dim={self.dim})"


def _acc(d: dict, key, val) -> None:
    nv = d.get(key, Fraction(0)) + val
    if nv:
        d[key] = nv
    elif key in d:
        del d[key]


# ---------------------------------------------------------------------------
# Tensor-square / tensor-cube element helpers (sparse dicts)
# ---------------------------------------------------------------------------


def t2_from_vec(x: Sequence[Fraction], dim: int) -> dict[tuple[int, int], Fraction]:
    return {(k // dim, k % dim): c for k, c in enumerate(x) if c}


def t2_to_vec(x: dict[tuple[int, int], Fraction], dim: int) -> list[Fraction]:
    out = zero_vec(dim * dim)
    for (i, j), c in x.items():
        out[i * dim + j] = c
    return out


def t2_mul(alg: StructureAlgebra, x: dict, y: dict) -> dict:
    out: dict[tuple[int, int], Fraction] = {}
    mul_basis = alg.mul_basis
    ys = list(y.items())
    for (i, j), c in x.items():
        for (k, l), d in ys:
            right = mul_basis(j, l)
            if not right:
                continue
            coef = c * d
            for p, cp in mul_basis(i, k):
                a = coef * cp
                for q, cq in right:
                    v = a * cq
                    key = (p, q)
                    if key in out:
                        v += out[key]
                        if not v:
                            del out[key]
                            continue
                    out[key] = v
    return out


def t3_mul(alg: StructureAlgebra, x: dict, y: dict) -> dict:
    out: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, m), c in x.items():
        for (k, l, n), d in y.items():
            coef = c * d
            for p, cp in alg.mul_basis(i, k):
                for q, cq in alg.mul_basis(j, l):
                    for r, cr in alg.mul_basis(m, n):
                        _acc(out, (p, q, r), coef * cp * cq * cr)
    return out


def t2_unit(h: HopfAlgebra) -> dict[tuple[int, int], Fraction]:
    out: dict[tuple[int, int], Fraction] = {}
    for i, a in enumerate(h.alg.unit):
        if a:
            for j, b in enumerate(h.alg.unit):
                if b:
                    out[(i, j)] = a * b
    return out


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


def check_hopf_axioms(h: HopfAlgebra) -> CheckReport:
    """Itemized verification of all Hopf axiom families, exactly."""
    rep = CheckReport(f"Hopf axioms ({h.name or 'unnamed'})")
    alg = h.alg
    n = h.dim

    rep.merge(check_algebra_axioms(alg))

    # coassociativity
    for i in range(n):
        lhs: dict[tuple[int, int, int], Fraction] = {}
        rhs: dict[tuple[int, int, int], Fraction] = {}
        for p, q, c in h.cop_sparse(i):
            for u, v, d in h.cop_sparse(p):
                _acc(lhs, (u, v, q), c * d)
            for u, v, d in h.cop_sparse(q):
                _acc(rhs, (p, u, v), c * d)
        rep.require(lhs == rhs, f"coassociativity fails at {alg.basis[i]}")

    # counit law
    for i in range(n):
        left = zero_vec(n)
        right = zero_vec(n)
        for p, q, c in h.cop_sparse(i):
            left[q] += c * h.counit[p]
            right[p] += c * h.counit[q]
        ei = alg.basis_vec(i)
        rep.require(left == ei, f"(ε⊗id)Δ fails at {alg.basis[i]}")
        rep.require(right == ei, f"(id⊗ε)Δ fails at {alg.basis[i]}")

    # Δ and ε are algebra maps
    rep.require(h.cop_of_vec(alg.unit) == t2_unit(h), "Δ(1) ≠ 1⊗1")
    rep.require(h.counit_of(alg.unit) == 1, "ε(1) ≠ 1")
    cops = [{(p, q): c for p, q, c in h.cop_sparse(i)} for i in range(n)]
    for i in range(n):
        for j in range(n):
            prod = alg.mul_basis(i, j)
            d_prod: dict[tuple[int, int], Fraction] = {}
            for k, c in prod:
                for p, q, d in h.cop_sparse(k):
                    _acc(d_prod, (p, q), c * d)
            rep.require(
                d_prod == t2_mul(alg, cops[i], cops[j]),
                f"Δ not multiplicative at ({alg.basis[i]},{alg.basis[j]})",
            )
            rep.require(
                sum((c * h.counit[k] for k, c in prod), Fraction(0)) == h.counit[i] * h.counit[j],
                f"ε not multiplicative at ({alg.basis[i]},{alg.basis[j]})",
            )

    # antipode law
    s = [sparse_vec(h.antipode.col(p)) for p in range(n)]
    for i in range(n):
        left, right = _convolution_sides(h, s, i)
        target = _unit_times_counit(h, i)
        rep.require(left == target, f"m(S⊗id)Δ fails at {alg.basis[i]}")
        rep.require(right == target, f"m(id⊗S)Δ fails at {alg.basis[i]}")

    ident = Matrix.identity(n)
    rep.require(h.antipode @ h.antipode_inv == ident, "S∘S⁻¹ ≠ id")
    rep.require(h.antipode_inv @ h.antipode == ident, "S⁻¹∘S ≠ id")
    return rep


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


def dual_hopf(h: HopfAlgebra) -> HopfAlgebra:
    """H* on the dual basis: mult = Δᵀ, coproduct = multᵀ, antipode = Sᵀ."""
    n = h.dim
    basis = [b + "*" for b in h.alg.basis]
    mult = [[zero_vec(n) for _ in range(n)] for _ in range(n)]
    for m in range(n):
        for p, q, c in h.cop_sparse(m):
            mult[p][q][m] += c
    alg = StructureAlgebra(basis, h.counit, mult, name=(h.name or "H") + "*")
    cop = [zero_vec(n * n) for _ in range(n)]
    for u in range(n):
        for v in range(n):
            for i, c in h.alg.mul_basis(u, v):
                cop[i][u * n + v] += c
    counit = list(h.alg.unit)
    antipode = h.antipode.transpose()
    antipode_inv = h.antipode_inv.transpose()
    return HopfAlgebra(alg, cop, counit, antipode, antipode_inv, name=alg.name)


# ---------------------------------------------------------------------------
# Antipode reconstruction
# ---------------------------------------------------------------------------


def antipode_from_bialgebra(alg: StructureAlgebra, cop_sparse, counit: Sequence[Fraction]) -> Matrix:
    """Solve m(S⊗id)Δ = uε for S as a linear system.

    The antipode, when it exists, is the unique convolution inverse of the
    identity, so this pins S without committing to any book's sign
    convention. Raises if the bialgebra is not Hopf. ``drinfeld_double``
    writes its antipode in closed form instead; the tests compare the two.
    """
    n = alg.dim
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for z in range(n):
        eqs: list[dict[int, Fraction]] = [dict() for _ in range(n)]
        for u, v, c in cop_sparse(z):
            for p in range(n):
                unknown = u * n + p
                for w, cw in alg.mul_basis(p, v):
                    _acc(eqs[w], unknown, c * cw)
        for w in range(n):
            rows.append(eqs[w])
            rhs.append(counit[z] * alg.unit[w])
    sol = solve_sparse(rows, rhs, n * n)
    if sol.particular is None:
        raise ValueError("no antipode: bialgebra is not Hopf")
    s = Matrix([[sol.particular[u * n + p] for u in range(n)] for p in range(n)])
    # verify the right antipode law, which is not part of the solve
    for z in range(n):
        acc = zero_vec(n)
        for u, v, c in cop_sparse(z):
            sv = s.col(v)
            for k, val in enumerate(alg.mul_vec(alg.basis_vec(u), sv)):
                acc[k] += c * val
        if acc != [counit[z] * x for x in alg.unit]:
            raise ValueError("left convolution inverse of id is not two-sided")
    return s


# ---------------------------------------------------------------------------
# Drinfeld double
# ---------------------------------------------------------------------------


def drinfeld_double(h: HopfAlgebra) -> tuple[HopfAlgebra, "QTStructure"]:
    """D(H) = H^{*,cop} ⋈ H with its canonical quasitriangular element.

    Basis f_i ⋈ e_j at flat index i·n + j. Multiplication:
        (f ⋈ a)(f' ⋈ a') = f · (a₍₁₎ ⇀ f' ↼ S⁻¹(a₍₃₎)) ⋈ a₍₂₎ a'
    with (a ⇀ f)(x) = f(xa) and (f ↼ a)(x) = f(ax). The test suite pins
    this choice against the explicit generator relations of D(H₄).

    The antipode and the inverse of R = Σ (ε ⋈ e_i) ⊗ (f_i ⋈ 1) are written
    in closed form (Kassel, *Quantum Groups*, Ch. IX):
        S(f ⋈ a) = (ε ⋈ S a)(S_{H*cop} f ⋈ 1),   R⁻¹ = (S ⊗ id)R,
    where S_{H*cop} is the inverse of the antipode of H*, and S⁻¹ likewise
    from S_H⁻¹ and S_{H*}. Both are then verified exactly: the two
    convolution laws, S∘S⁻¹ = id = S⁻¹∘S and R·R⁻¹ = 1⊗1 = R⁻¹·R. Antipode
    and inverse are unique, so no sign convention is guessed; a failed
    check raises ValueError. Every product is a sparse contraction.
    """
    hd = dual_hopf(h)
    ha, da = h.alg, hd.alg
    n = h.dim
    big = n * n
    one = Fraction(1)

    basis = [f"{da.basis[i]}⋈{ha.basis[j]}" for i in range(n) for j in range(n)]
    eps = sparse_vec(da.unit)
    unit_h = sparse_vec(ha.unit)
    unit = dense_vec(_bowtie(n, eps, unit_h), big)

    # lam[(p, r, i2)] = {m: [e_i2] S⁻¹(e_r)·e_m·e_p}, the functional
    # e_p ⇀ f_i2 ↼ S⁻¹(e_r) on the basis of H
    lam: dict[tuple[int, int, int], SparseVec] = {}
    for r in range(n):
        sinv_r = sparse_vec(h.antipode_inv.col(r))
        for m in range(n):
            left = ha.mul_sparse(sinv_r, {m: one})
            for p in range(n):
                for i2, c in ha.mul_sparse(left, {p: one}).items():
                    lam.setdefault((p, r, i2), {})[m] = c

    mult = [[zero_vec(big) for _ in range(big)] for _ in range(big)]
    for j in range(n):
        sw2 = h.sweedler2(j)
        for i2 in range(n):
            terms = [(q, c, lam[(p, r, i2)]) for p, q, r, c in sw2 if (p, r, i2) in lam]
            for i in range(n):
                # Σ c·(f_i · lam) over the Sweedler terms, collected by e_q
                fparts: dict[int, SparseVec] = {}
                for q, c, lm in terms:
                    da.mul_sparse({i: c}, lm, fparts.setdefault(q, {}))
                row = mult[i * n + j]
                for j2 in range(n):
                    out = row[i2 * n + j2]
                    for q, fpart in fparts.items():
                        hq = ha.mul_basis(q, j2)
                        for wi, fv in fpart.items():
                            base = wi * n
                            for hj, hv in hq:
                                out[base + hj] += fv * hv
    alg = StructureAlgebra(basis, unit, mult, name=f"D({h.name or 'H'})")

    cop = [zero_vec(big * big) for _ in range(big)]
    for i in range(n):
        for j in range(n):
            row = cop[i * n + j]
            for u, v, cuv in hd.cop_sparse(i):
                for p, q, cpq in h.cop_sparse(j):
                    row[(v * n + p) * big + u * n + q] += cuv * cpq
    counit = [hd.counit[i] * h.counit[j] for i in range(n) for j in range(n)]

    def closed_antipode(s_h: Matrix, s_dual: Matrix) -> list[SparseVec]:
        # column i·n + j is (ε ⋈ s_h e_j)(s_dual f_i ⋈ 1)
        hcols = [sparse_vec(s_h.col(j)) for j in range(n)]
        dcols = [sparse_vec(s_dual.col(i)) for i in range(n)]
        return [
            alg.mul_sparse(_bowtie(n, eps, hcols[j]), _bowtie(n, dcols[i], unit_h))
            for i in range(n)
            for j in range(n)
        ]

    s = closed_antipode(h.antipode, hd.antipode_inv)
    s_inv = closed_antipode(h.antipode_inv, hd.antipode)
    double = HopfAlgebra(
        alg,
        cop,
        counit,
        Matrix.from_cols([dense_vec(col, big) for col in s]),
        Matrix.from_cols([dense_vec(col, big) for col in s_inv]),
        name=alg.name,
        meta={"double_of": h.name or "H", "factor_dim": n},
    )
    _require_antipode(double, s, s_inv)

    r = {
        (m * n + i, i * n + j): a * b
        for i in range(n)
        for m, a in eps.items()
        for j, b in unit_h.items()
    }
    r_inv: dict[tuple[int, int], Fraction] = {}
    for (x, y), c in r.items():
        for k, sv in s[x].items():
            _acc(r_inv, (k, y), c * sv)
    one_one = t2_unit(double)
    if t2_mul(alg, r, r_inv) != one_one or t2_mul(alg, r_inv, r) != one_one:
        raise ValueError(f"{alg.name}: (S⊗id)R is not the inverse of R")
    return double, QTStructure(double, t2_to_vec(r, big), t2_to_vec(r_inv, big))


def _bowtie(n: int, f: SparseVec, a: SparseVec) -> SparseVec:
    """f ⋈ a inside D(H) from the sparse dual and algebra parts."""
    return {i * n + j: x * y for i, x in f.items() for j, y in a.items()}


def _convolution_sides(h: HopfAlgebra, s: list[SparseVec], z: int) -> tuple[SparseVec, SparseVec]:
    """(m(S⊗id)Δ(e_z), m(id⊗S)Δ(e_z)) for S given by its sparse columns."""
    left: SparseVec = {}
    right: SparseVec = {}
    for u, v, c in h.cop_sparse(z):
        h.alg.mul_sparse(s[u], {v: c}, left)
        h.alg.mul_sparse({u: c}, s[v], right)
    return left, right


def _unit_times_counit(h: HopfAlgebra, z: int) -> SparseVec:
    """ε(e_z)·1 as a sparse vector."""
    e = h.counit[z]
    return {k: e * u for k, u in enumerate(h.alg.unit) if e and u}


def _require_antipode(h: HopfAlgebra, s: list[SparseVec], s_inv: list[SparseVec]) -> None:
    """Raise ValueError unless the columns s satisfy m(S⊗id)Δ = uε = m(id⊗S)Δ
    and s_inv is their two-sided inverse, all exactly."""
    alg = h.alg
    for z in range(h.dim):
        target = _unit_times_counit(h, z)
        for side, got in zip(("m(S⊗id)Δ", "m(id⊗S)Δ"), _convolution_sides(h, s, z)):
            if got != target:
                raise ValueError(f"{alg.name}: closed-form antipode fails {side} = uε at {alg.basis[z]}")
        for a, b, label in ((s, s_inv, "S∘S⁻¹"), (s_inv, s, "S⁻¹∘S")):
            if sparse_sum((c, a[k]) for k, c in b[z].items()) != {z: 1}:
                raise ValueError(f"{alg.name}: closed-form {label} ≠ id at {alg.basis[z]}")


def bowtie_vec(double_dim_factor: int, fvec: Sequence[Fraction], avec: Sequence[Fraction]) -> list[Fraction]:
    """Coefficient vector of f ⋈ a inside D(H), given dual/algebra parts."""
    n = double_dim_factor
    return dense_vec(_bowtie(n, sparse_vec(fvec), sparse_vec(avec)), n * n)


# ---------------------------------------------------------------------------
# Quasitriangular structures
# ---------------------------------------------------------------------------


@dataclass
class QTStructure:
    hopf: HopfAlgebra
    r: list[Fraction]
    r_inv: list[Fraction]

    def pairs(self) -> dict[tuple[int, int], Fraction]:
        return t2_from_vec(self.r, self.hopf.dim)


def qt_structure(h: HopfAlgebra, rvec: Sequence[Fraction]) -> QTStructure:
    """Wrap an element of H⊗H, solving for its multiplicative inverse."""
    n = h.dim
    r = t2_from_vec(vec(rvec), n)
    rows: list[dict[int, Fraction]] = [dict() for _ in range(n * n)]
    for (i, j), c in r.items():
        for k in range(n):
            for p, cp in h.alg.mul_basis(i, k):
                for l in range(n):
                    for q, cq in h.alg.mul_basis(j, l):
                        _acc(rows[p * n + q], k * n + l, c * cp * cq)
    target = t2_to_vec(t2_unit(h), n)
    sol = solve_sparse(rows, target, n * n)
    if sol.particular is None:
        raise ValueError("element of H⊗H is not invertible")
    rinv = sol.particular
    if t2_mul(h.alg, t2_from_vec(rinv, n), r) != t2_unit(h):
        raise ValueError("right inverse is not two-sided")
    return QTStructure(h, vec(rvec), rinv)


def check_quasitriangular(h: HopfAlgebra, rt: QTStructure) -> CheckReport:
    """All quasitriangular axioms, exactly; data["triangular"] = (R₂₁ = R⁻¹)."""
    rep = CheckReport(f"quasitriangular ({h.name})")
    n = h.dim
    alg = h.alg
    r = rt.pairs()

    eps_left = zero_vec(n)
    eps_right = zero_vec(n)
    for (i, j), c in r.items():
        eps_left[j] += c * h.counit[i]
        eps_right[i] += c * h.counit[j]
    rep.require(eps_left == alg.one(), "(ε⊗id)R ≠ 1")
    rep.require(eps_right == alg.one(), "(id⊗ε)R ≠ 1")

    r13 = {}
    r23 = {}
    r12 = {}
    for (i, j), c in r.items():
        for k, u in enumerate(alg.unit):
            if u:
                _acc(r13, (i, k, j), c * u)
                _acc(r23, (k, i, j), c * u)
                _acc(r12, (i, j, k), c * u)

    lhs1: dict[tuple[int, int, int], Fraction] = {}
    for (i, j), c in r.items():
        for p, q, d in h.cop_sparse(i):
            _acc(lhs1, (p, q, j), c * d)
    rep.require(lhs1 == t3_mul(alg, r13, r23), "(Δ⊗id)R ≠ R₁₃R₂₃")

    lhs2: dict[tuple[int, int, int], Fraction] = {}
    for (i, j), c in r.items():
        for p, q, d in h.cop_sparse(j):
            _acc(lhs2, (i, p, q), c * d)
    rep.require(lhs2 == t3_mul(alg, r13, r12), "(id⊗Δ)R ≠ R₁₃R₁₂")

    for z in range(n):
        dz = h.cop_of_vec(alg.basis_vec(z))
        dz_cop = {(j, i): c for (i, j), c in dz.items()}
        rep.require(
            t2_mul(alg, r, dz) == t2_mul(alg, dz_cop, r),
            f"R·Δ ≠ Δ^cop·R at {alg.basis[z]}",
        )

    rinv = t2_from_vec(rt.r_inv, n)
    rep.require(t2_mul(alg, r, rinv) == t2_unit(h), "R·R⁻¹ ≠ 1⊗1")
    r21 = {(j, i): c for (i, j), c in r.items()}
    rep.data["triangular"] = r21 == rinv
    return rep


# ---------------------------------------------------------------------------
# Coquasitriangular structures
# ---------------------------------------------------------------------------


@dataclass
class CoQTStructure:
    hopf: HopfAlgebra
    form: Matrix
    form_inv: Matrix


def coqt_structure(h: HopfAlgebra, form: Matrix) -> CoQTStructure:
    """Wrap a bilinear form on H, solving for its convolution inverse."""
    n = h.dim
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for x in range(n):
        for y in range(n):
            row: dict[int, Fraction] = {}
            for p, q, c in h.cop_sparse(x):
                for u, v, d in h.cop_sparse(y):
                    _acc(row, p * n + u, c * d * form.data[q][v])
            rows.append(row)
            rhs.append(h.counit[x] * h.counit[y])
    sol = solve_sparse(rows, rhs, n * n)
    if sol.particular is None:
        raise ValueError("form is not convolution invertible")
    inv = Matrix([[sol.particular[p * n + u] for u in range(n)] for p in range(n)])
    return CoQTStructure(h, form, inv)


def check_coquasitriangular(h: HopfAlgebra, ct: CoQTStructure) -> CheckReport:
    """Coquasitriangular axioms on basis triples; data["cotriangular"]."""
    rep = CheckReport(f"coquasitriangular ({h.name})")
    n = h.dim
    alg = h.alg
    r = ct.form.data

    for x in range(n):
        val_left = sum((a * r[i][x] for i, a in enumerate(alg.unit)), Fraction(0))
        val_right = sum((a * r[x][i] for i, a in enumerate(alg.unit)), Fraction(0))
        rep.require(val_left == h.counit[x], f"r(1⊗{alg.basis[x]}) ≠ ε")
        rep.require(val_right == h.counit[x], f"r({alg.basis[x]}⊗1) ≠ ε")

    for u in range(n):
        for v in range(n):
            prod_uv = alg.mul_basis(u, v)
            for w in range(n):
                lhs = sum((c * r[k][w] for k, c in prod_uv), Fraction(0))
                rhs = sum((d * r[u][p] * r[v][q] for p, q, d in h.cop_sparse(w)), Fraction(0))
                rep.require(
                    lhs == rhs,
                    f"r(ab⊗c) axiom fails at ({alg.basis[u]},{alg.basis[v]},{alg.basis[w]})",
                )
                lhs2 = sum((c * r[u][k] for k, c in alg.mul_basis(v, w)), Fraction(0))
                rhs2 = sum((d * r[p][w] * r[q][v] for p, q, d in h.cop_sparse(u)), Fraction(0))
                rep.require(
                    lhs2 == rhs2,
                    f"r(a⊗bc) axiom fails at ({alg.basis[u]},{alg.basis[v]},{alg.basis[w]})",
                )

    for x in range(n):
        for y in range(n):
            lhs = zero_vec(n)
            rhs = zero_vec(n)
            for p, q, c in h.cop_sparse(x):
                for u, v, d in h.cop_sparse(y):
                    coef = c * d
                    for k, e in alg.mul_basis(q, v):
                        lhs[k] += coef * r[p][u] * e
                    for k, e in alg.mul_basis(u, p):
                        rhs[k] += coef * r[q][v] * e
            rep.require(
                lhs == rhs,
                f"r-commutation axiom fails at ({alg.basis[x]},{alg.basis[y]})",
            )

    ri = ct.form_inv.data
    for x in range(n):
        for y in range(n):
            conv = sum(
                (
                    c * d * ri[p][u] * r[q][v]
                    for p, q, c in h.cop_sparse(x)
                    for u, v, d in h.cop_sparse(y)
                ),
                Fraction(0),
            )
            conv2 = sum(
                (
                    c * d * r[p][u] * ri[q][v]
                    for p, q, c in h.cop_sparse(x)
                    for u, v, d in h.cop_sparse(y)
                ),
                Fraction(0),
            )
            want = h.counit[x] * h.counit[y]
            rep.require(conv == want and conv2 == want, f"convolution inverse fails at ({x},{y})")

    rep.data["cotriangular"] = ct.form_inv == ct.form.transpose()
    return rep


# ---------------------------------------------------------------------------
# Hopf morphisms
# ---------------------------------------------------------------------------


@dataclass
class HopfMorphism:
    source: HopfAlgebra
    target: HopfAlgebra
    matrix: Matrix
    name: str = ""

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ValueError("morphism matrix has wrong shape")

    def apply(self, x: Sequence[Fraction]) -> list[Fraction]:
        return self.matrix.apply(x)


def check_hopf_morphism(f: HopfMorphism) -> CheckReport:
    rep = CheckReport(f"Hopf morphism ({f.name or f.source.name + '→' + f.target.name})")
    src, tgt = f.source, f.target
    n = src.dim
    rep.require(f.apply(src.alg.unit) == tgt.alg.one(), "f(1) ≠ 1")
    images = [f.apply(src.alg.basis_vec(i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = f.apply(src.alg.mul_vec(src.alg.basis_vec(i), src.alg.basis_vec(j)))
            rhs = tgt.alg.mul_vec(images[i], images[j])
            rep.require(lhs == rhs, f"not an algebra map at ({src.alg.basis[i]},{src.alg.basis[j]})")
    for i in range(n):
        rep.require(
            tgt.counit_of(images[i]) == src.counit[i],
            f"counit not preserved at {src.alg.basis[i]}",
        )
        lhs: dict[tuple[int, int], Fraction] = {}
        for p, q, c in src.cop_sparse(i):
            for a, va in enumerate(images[p]):
                if va:
                    for b, vb in enumerate(images[q]):
                        if vb:
                            _acc(lhs, (a, b), c * va * vb)
        rep.require(
            lhs == tgt.cop_of_vec(images[i]),
            f"not a coalgebra map at {src.alg.basis[i]}",
        )
        rep.require(
            f.apply(src.antipode.col(i)) == tgt.antipode_vec(images[i]),
            f"antipode not intertwined at {src.alg.basis[i]}",
        )
    return rep


def push_qt(f: HopfMorphism, rvec: Sequence[Fraction]) -> list[Fraction]:
    """(f ⊗ f)(R) as an element of target ⊗ target."""
    n = f.source.dim
    m = f.target.dim
    out = zero_vec(m * m)
    r = t2_from_vec(vec(rvec), n)
    for (i, j), c in r.items():
        fi = f.apply(f.source.alg.basis_vec(i))
        fj = f.apply(f.source.alg.basis_vec(j))
        for a, va in enumerate(fi):
            if va:
                for b, vb in enumerate(fj):
                    if vb:
                        out[a * m + b] += c * va * vb
    return out
