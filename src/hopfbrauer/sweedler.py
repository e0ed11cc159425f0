"""Sweedler Hopf algebra H₄ and everything built on it.

H₄ is generated by a grouplike g and an element h with g² = 1, h² = 0,
gh = −hg, Δ(h) = 1⊗h + h⊗g, S(g) = g, S(h) = gh. The module provides its
(co)triangular structures R_t / r_t, the self-duality isomorphism φ, the
Drinfeld double with named generators, the lazy cocycles σ_t, the
two-dimensional family C(a;t,s) with its descriptor calculus (opposites,
equivalences, products, subgroup membership, BM₀ invariants, Ψ/Φ
transports, Aut(H₄) conjugation, subgroup intersections).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import CheckReport, StructureAlgebra, opposite_algebra
from .hopf import (
    CoQTStructure,
    HopfAlgebra,
    HopfMorphism,
    QTStructure,
    bowtie_vec,
    coqt_structure,
    drinfeld_double,
    dual_hopf,
    qt_structure,
)
from .linalg import Matrix, rational_is_square, zero_vec
from .yd import (
    YDObject,
    check_yd_algebra,
    end_yd,
    induced_action,
    sharp_product,
    strongly_inner_witness_h4,
)

Q = Fraction


# ---------------------------------------------------------------------------
# H₄ and its quasitriangular / cotriangular structures
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_h4() -> HopfAlgebra:
    """Sweedler's four-dimensional Hopf algebra on the basis (1, g, h, gh)."""
    basis = ["1", "g", "h", "gh"]
    z = [0, 0, 0, 0]
    mult = [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        [[0, 0, 1, 0], [0, 0, 0, -1], z, z],
        [[0, 0, 0, 1], [0, 0, -1, 0], z, z],
    ]
    alg = StructureAlgebra(basis, [1, 0, 0, 0], mult, name="H4")
    cop = [zero_vec(16) for _ in range(4)]
    cop[0][0 * 4 + 0] = Q(1)                 # Δ1 = 1⊗1
    cop[1][1 * 4 + 1] = Q(1)                 # Δg = g⊗g
    cop[2][0 * 4 + 2] = Q(1)                 # Δh = 1⊗h + h⊗g
    cop[2][2 * 4 + 1] = Q(1)
    cop[3][1 * 4 + 3] = Q(1)                 # Δ(gh) = g⊗gh + gh⊗1
    cop[3][3 * 4 + 0] = Q(1)
    counit = [1, 1, 0, 0]
    antipode = Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    meta = {"g": 1, "h": 2, "pi_keep": (0, 1)}
    return HopfAlgebra(alg, cop, counit, antipode, name="H4", meta=meta)


def build_rt(t) -> QTStructure:
    """The triangular structure R_t of H₄."""
    t = Q(t)
    h4 = build_h4()
    r = zero_vec(16)
    half = Q(1, 2)
    for (i, j), c in {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half}.items():
        r[i * 4 + j] += c
    th = t / 2
    for (i, j), c in {(2, 2): th, (2, 3): th, (3, 3): th, (3, 2): -th}.items():
        r[i * 4 + j] += c
    return qt_structure(h4, r)


def build_rt_form(t) -> CoQTStructure:
    """The cotriangular structure r_t of H₄ as a bilinear form table."""
    t = Q(t)
    h4 = build_h4()
    form = Matrix(
        [
            [1, 1, 0, 0],
            [1, -1, 0, 0],
            [0, 0, t, -t],
            [0, 0, t, t],
        ]
    )
    return coqt_structure(h4, form)


@functools.lru_cache(maxsize=None)
def build_h4_dual() -> HopfAlgebra:
    return dual_hopf(build_h4())


@functools.lru_cache(maxsize=None)
def phi_iso() -> HopfMorphism:
    """The self-duality isomorphism φ: H₄ → H₄*.

    1 ↦ 1*+g*, h ↦ h*+(gh)*, g ↦ 1*−g*, gh ↦ h*−(gh)*.
    """
    matrix = Matrix.from_cols([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]])
    return HopfMorphism(build_h4(), build_h4_dual(), matrix, name="phi")


# ---------------------------------------------------------------------------
# The Drinfeld double D(H₄)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_dh4() -> tuple[HopfAlgebra, QTStructure]:
    """D(H₄) with canonical ℛ = Σᵢ (ε⋈e_i) ⊗ (e_i*⋈1) and named generators."""
    h4 = build_h4()
    double, canonical = drinfeld_double(h4)
    phi = phi_iso().matrix
    eps = build_h4_dual().alg.unit
    named: dict[str, list[Fraction]] = {}
    for label, idx in (("one", 0), ("g", 1), ("h", 2), ("gh", 3)):
        named[label] = bowtie_vec(4, eps, h4.alg.basis_vec(idx))
        named["phi_" + label] = bowtie_vec(4, phi.col(idx), h4.alg.unit)
    double.meta["named"] = named
    double.meta["g"] = None  # the grading generators are combinations, see named
    return double, canonical


def dh4_named(label: str) -> list[Fraction]:
    double, _ = build_dh4()
    return list(double.meta["named"][label])


def dh4_relations() -> list[tuple[str, list[Fraction]]]:
    """The ten defining relations of D(H₄), each as an element that must vanish."""
    double, _ = build_dh4()
    a = double.alg
    g = dh4_named("g")
    h = dh4_named("h")
    fg = dh4_named("phi_g")
    fh = dh4_named("phi_h")
    one = a.one()

    def m(x, y):
        return a.mul_vec(x, y)

    def sub(x, y):
        return [p - q for p, q in zip(x, y)]

    def add(x, y):
        return [p + q for p, q in zip(x, y)]

    return [
        ("(φ(h)⋈1)² = 0", m(fh, fh)),
        ("(φ(g)⋈1)² = ε⋈1", sub(m(fg, fg), one)),
        ("φ(h)φ(g) + φ(g)φ(h) = 0", add(m(fh, fg), m(fg, fh))),
        ("(ε⋈h)² = 0", m(h, h)),
        ("hg + gh = 0", add(m(h, g), m(g, h))),
        ("(ε⋈g)² = ε⋈1", sub(m(g, g), one)),
        ("φ(h)g + gφ(h) = 0", add(m(fh, g), m(g, fh))),
        ("φ(g)h + hφ(g) = 0", add(m(fg, h), m(h, fg))),
        ("gφ(g) − φ(g)g = 0", sub(m(g, fg), m(fg, g))),
        ("φ(h)h − hφ(h) = φ(g) − g", sub(sub(m(fh, h), m(h, fh)), sub(fg, g))),
    ]


def check_dh4_relations() -> CheckReport:
    rep = CheckReport("D(H4) generator relations")
    for label, val in dh4_relations():
        rep.require(all(c == 0 for c in val), f"relation fails: {label}")
    return rep


# ---------------------------------------------------------------------------
# The two-dimensional family C(a;t,s)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CFamilyDescriptor:
    """The triple (a, t, s) naming the algebra C(a;t,s): x² = a, g·x = −x,
    h·x = t, ρ(x) = x⊗g + s⊗h."""

    a: Fraction
    t: Fraction
    s: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Q(self.a))
        object.__setattr__(self, "t", Q(self.t))
        object.__setattr__(self, "s", Q(self.s))

    @property
    def is_azumaya(self) -> bool:
        return 2 * self.a != self.s * self.t

    def canonical(self) -> "CFamilyDescriptor":
        """Representative of the YD-isomorphism class (a,t,s) ~ (α²a, αt, αs)."""
        if self.t:
            al = 1 / self.t
        elif self.s:
            al = 1 / self.s
        else:
            sf = squarefree_part(self.a)
            return CFamilyDescriptor(Q(sf), Q(0), Q(0))
        return CFamilyDescriptor(self.a * al * al, self.t * al, self.s * al)

    def __repr__(self) -> str:
        from .linalg import format_rational as fr

        return f"C({fr(self.a)};{fr(self.t)},{fr(self.s)})"


TRIAL_DIVISION_BOUND = 10**6


def squarefree_part(x) -> int:
    """Signed squarefree integer representing the square class of x in ℚ*.

    Trial division stops at B = TRIAL_DIVISION_BOUND, so any input ends in
    bounded time. When it stops at a divisor d with d² above the cofactor,
    the cofactor has no prime factor below d, so it is 1 or a prime. When
    it stops at the bound first, the cofactor is decided only if it is a
    perfect square; any other one (p·q and p²·q with p, q > B look alike)
    raises ValueError instead of guessing.
    """
    x = Q(x)
    if x == 0:
        return 0
    n = abs(x.numerator * x.denominator)
    out = 1
    d = 2
    while d <= TRIAL_DIVISION_BOUND and d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e ^= 1
        if e:
            out *= d
        d += 1 if d == 2 else 2
    if d * d <= n:
        if math.isqrt(n) ** 2 != n:
            raise ValueError(
                f"square class of {x} undecided: the cofactor {n} has no prime factor "
                f"below {d} and is neither below {d}² nor a square"
            )
        n = 1
    out *= n
    return out if x > 0 else -out


def build_C(d: CFamilyDescriptor):
    """C(a;t,s) as a Yetter-Drinfeld module algebra over H₄."""
    h4 = build_h4()
    alg = StructureAlgebra(
        ["1", "x"],
        [1, 0],
        [[[1, 0], [0, 1]], [[0, 1], [d.a, 0]]],
        name=repr(d),
    )
    hid = Matrix.identity(2)
    gm = Matrix.diag([1, -1])
    hm = Matrix([[0, d.t], [0, 0]])
    action = [hid, gm, hm, hm]  # gh acts like h on this carrier
    rho1 = zero_vec(8)
    rho1[0 * 4 + 0] = Q(1)
    rhox = zero_vec(8)
    rhox[1 * 4 + 1] = Q(1)          # x ⊗ g
    rhox[0 * 4 + 2] = d.s           # s·1 ⊗ h
    return YDObject(h4, 2, alg, action, [rho1, rhox])


def c_equivalent(d1: CFamilyDescriptor, d2: CFamilyDescriptor) -> Fraction | None:
    """Scaling witness α with a = α²a', t = αt', s = αs', or None."""
    for alpha in _scale_candidates(d1, d2, use_t=True, use_s=True):
        if d1.a == alpha * alpha * d2.a and d1.t == alpha * d2.t and d1.s == alpha * d2.s:
            return alpha
    return None


def module_iso_scale(d1: CFamilyDescriptor, d2: CFamilyDescriptor) -> Fraction | None:
    """Witness for C(a;t,s) ≅ C(a';t',s') as module algebras (s unconstrained)."""
    for alpha in _scale_candidates(d1, d2, use_t=True, use_s=False):
        if d1.a == alpha * alpha * d2.a and d1.t == alpha * d2.t:
            return alpha
    return None


def comodule_iso_scale(d1: CFamilyDescriptor, d2: CFamilyDescriptor) -> Fraction | None:
    """Witness for an isomorphism of comodule algebras (t unconstrained)."""
    for alpha in _scale_candidates(d1, d2, use_t=False, use_s=True):
        if d1.a == alpha * alpha * d2.a and d1.s == alpha * d2.s:
            return alpha
    return None


def _scale_candidates(d1, d2, use_t: bool, use_s: bool):
    # any isomorphism maps x ↦ α·y, so α is pinned by whichever datum is nonzero
    if use_t and d2.t:
        return [d1.t / d2.t]
    if use_s and d2.s:
        return [d1.s / d2.s]
    if d2.a:
        ratio = d1.a / d2.a
        root = rational_is_square(ratio)
        return [root, -root] if root is not None else []
    # d2 degenerate: any nonzero α works iff the matching data of d1 vanish
    return [Q(1), Q(-1)]


def c_opposite(d: CFamilyDescriptor) -> CFamilyDescriptor:
    """H₄-opposite on descriptors: (a,t,s) ↦ (st−a, t, s)."""
    return CFamilyDescriptor(d.s * d.t - d.a, d.t, d.s)


@dataclass
class CMembership:
    """Membership of [C(a;t,s)] in the images of i_l and ι_l.

    Each slot is "all" (the BW case t = s = 0), a specific parameter l,
    or None.
    """

    in_i: object
    in_iota: object


def c_membership(d: CFamilyDescriptor) -> CMembership:
    """[C(a;t,s)] ∈ Im(i_l) iff s = l·t; ∈ Im(ι_l) iff s·l = t."""
    if not d.is_azumaya:
        raise ValueError(f"{d!r} is not Azumaya (2a = st); class membership undefined")
    if d.t:
        in_i = d.s / d.t
    else:
        in_i = "all" if d.s == 0 else None
    if d.s:
        in_iota = d.t / d.s
    else:
        in_iota = "all" if d.t == 0 else None
    return CMembership(in_i, in_iota)


@dataclass
class CProductPresentation:
    """Generalized quaternion presentation of C(a;t,s) # C(a';t',s')."""

    x_sq: Fraction
    y_sq: Fraction
    anticommutator: Fraction   # XY + YX
    h_dot_x: Fraction
    h_dot_y: Fraction
    rho_x_s: Fraction          # ρ(X) = X⊗g + rho_x_s⊗h
    rho_y_s: Fraction


def c_product(d1: CFamilyDescriptor, d2: CFamilyDescriptor) -> CProductPresentation:
    return CProductPresentation(
        x_sq=d1.a,
        y_sq=d2.a,
        anticommutator=d1.s * d2.t,
        h_dot_x=d1.t,
        h_dot_y=d2.t,
        rho_x_s=d1.s,
        rho_y_s=d2.s,
    )


def quaternion_yd_algebra(p: CProductPresentation):
    """Build the YD algebra named by a quaternion presentation directly."""
    h4 = build_h4()
    a, b, m = p.x_sq, p.y_sq, p.anticommutator
    # basis 1, X, Y, XY with X² = a, Y² = b, YX = m − XY
    mult = [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [a, 0, 0, 0], [0, 0, 0, 1], [0, 0, a, 0]],
        [[0, 0, 1, 0], [m, 0, 0, -1], [b, 0, 0, 0], [0, -b, m, 0]],
        [[0, 0, 0, 1], [0, m, -a, 0], [0, b, 0, 0], [-a * b, 0, 0, m]],
    ]
    alg = StructureAlgebra(["1", "X", "Y", "XY"], [1, 0, 0, 0], mult, name="quaternion")
    gm = Matrix.diag([1, -1, -1, 1])
    # h·X = t₁, h·Y = t₂; extend by the module-algebra law:
    # h·(XY) = (1·X)(h·Y) + (h·X)(g·Y) = t₂X − t₁Y
    hm = Matrix(
        [
            [0, p.h_dot_x, p.h_dot_y, 0],
            [0, 0, 0, p.h_dot_y],
            [0, 0, 0, -p.h_dot_x],
            [0, 0, 0, 0],
        ]
    )
    ghm = gm @ hm
    action = [Matrix.identity(4), gm, hm, ghm]
    # ρ(X) = X⊗g + s₁⊗h, ρ(Y) = Y⊗g + s₂⊗h; ρ(XY) follows from the
    # H^op-comodule-algebra rule and is assembled below
    s1, s2 = p.rho_x_s, p.rho_y_s
    rho = [zero_vec(16) for _ in range(4)]
    rho[0][0 * 4 + 0] = Q(1)
    rho[1][1 * 4 + 1] = Q(1)
    rho[1][0 * 4 + 2] = s1
    rho[2][2 * 4 + 1] = Q(1)
    rho[2][0 * 4 + 2] = s2
    # ρ(XY) = ρ(X)ρ(Y) with the H^op rule: X₍₀₎Y₍₀₎ ⊗ Y₍₁₎X₍₁₎
    acc = zero_vec(16)
    pairs = [((1, 1), Q(1)), ((0, 2), s1)]
    pairs2 = [((2, 1), Q(1)), ((0, 2), s2)]
    h4a = h4.alg
    for (ax, kx), cx in pairs:
        for (ay, ky), cy in pairs2:
            apart = alg.mul_vec(alg.basis_vec(ax), alg.basis_vec(ay))
            hpart = h4a.mul_vec(h4a.basis_vec(ky), h4a.basis_vec(kx))
            for pp, cp in enumerate(apart):
                if cp:
                    for qq, cq in enumerate(hpart):
                        if cq:
                            acc[pp * 4 + qq] += cx * cy * cp * cq
    rho[3] = acc
    return YDObject(h4, 4, alg, action, rho)


# ---------------------------------------------------------------------------
# BM₀ invariants (Prop. "BM0"-style classification at s = 0)
# ---------------------------------------------------------------------------


@dataclass
class BM0Invariant:
    """((k,+)-component, Brauer-Wall square class) of [C(a;t,0)]."""

    beta: Fraction
    square_class: int


def classify_bm0(d: CFamilyDescriptor) -> BM0Invariant:
    """[C(a;t,0)] = (t²(4a)⁻¹, [C(a)]); β is recomputed through the
    strongly-inner witness solve on C(a;t,0)#C(−a;0,0) and must agree."""
    if d.s != 0:
        raise ValueError("BM₀ classification needs s = 0")
    if d.a == 0:
        raise ValueError("BM₀ classification needs a ≠ 0")
    beta = d.t * d.t / (4 * d.a)
    neutralizer = CFamilyDescriptor(-d.a, 0, 0)
    witness_carrier = sharp_product(build_C(d), build_C(neutralizer))
    found = strongly_inner_witness_h4(witness_carrier)
    if found is None:
        raise ValueError("strongly-inner witness solve failed on C(a;t,0)#C(−a;0,0)")
    _, _, beta_witness = found
    if beta_witness != beta:
        raise AssertionError(
            f"invariant mismatch: closed form {beta} vs witness solve {beta_witness}"
        )
    return BM0Invariant(beta, squarefree_part(d.a))


# ---------------------------------------------------------------------------
# Lazy cocycles and the Ψ / Φ transports
# ---------------------------------------------------------------------------


@dataclass
class LazyCocycle:
    t: Fraction
    table: Matrix  # σ(e_i ⊗ e_j) over the basis (1, g, h, gh)


def build_sigma(t) -> LazyCocycle:
    """The lazy cocycle σ_t: σ(h⊗h) = σ(gh⊗h) = t/2, σ(h⊗gh) = σ(gh⊗gh) = −t/2.

    These are the only normalized lazy cocycles of H₄: imposing laziness and
    the 2-cocycle identity on a generic table leaves exactly this
    one-parameter family.
    """
    t = Q(t)
    table = Matrix(
        [
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 0, t / 2, -t / 2],
            [0, 0, t / 2, -t / 2],
        ]
    )
    sigma = LazyCocycle(t, table)
    check_lazy_cocycle(sigma).raise_if_failed()
    return sigma


def check_lazy_cocycle(sigma: LazyCocycle) -> CheckReport:
    """Left 2-cocycle condition plus the laziness condition, on basis triples."""
    rep = CheckReport("lazy cocycle")
    h = build_h4()
    alg = h.alg
    s = sigma.table.data
    rep.require(all(s[0][k] == h.counit[k] for k in range(4)), "σ(1⊗·) ≠ ε")
    rep.require(all(s[k][0] == h.counit[k] for k in range(4)), "σ(·⊗1) ≠ ε")
    for i in range(4):
        for j in range(4):
            for m in range(4):
                lhs = Q(0)
                for p, q, c in h.cop_sparse(i):
                    for u, v, d in h.cop_sparse(j):
                        inner = sum((e * s[k][m] for k, e in alg.mul_basis(q, v)), Q(0))
                        lhs += c * d * s[p][u] * inner
                rhs = Q(0)
                for u, v, d in h.cop_sparse(j):
                    for p, q, c in h.cop_sparse(m):
                        inner = sum((e * s[i][k] for k, e in alg.mul_basis(v, q)), Q(0))
                        rhs += c * d * s[u][p] * inner
                rep.require(lhs == rhs, f"cocycle condition fails at ({i},{j},{m})")
    for i in range(4):
        for j in range(4):
            lhs = zero_vec(4)
            rhs = zero_vec(4)
            for p, q, c in h.cop_sparse(i):
                for u, v, d in h.cop_sparse(j):
                    coef = c * d
                    for k, e in alg.mul_basis(q, v):
                        lhs[k] += coef * s[p][u] * e
                    for k, e in alg.mul_basis(p, u):
                        rhs[k] += coef * s[q][v] * e
            rep.require(lhs == rhs, f"laziness fails at ({i},{j})")
    return rep


def cocycle_twist(a, sigma: LazyCocycle):
    """Twist a right H₄^op-comodule algebra: x•y = x₍₀₎y₍₀₎ σ(x₍₁₎⊗y₍₁₎).

    The coaction is unchanged; the output is a comodule algebra (any action
    on the input is dropped — transported actions are reinduced from the
    matching cotriangular structure by the caller).
    """
    check_lazy_cocycle(sigma).raise_if_failed()
    alg = a.alg
    h = build_h4()
    s = sigma.table.data
    mult = [[zero_vec(alg.dim) for _ in range(alg.dim)] for _ in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            out = mult[i][j]
            for a0, k0, c0 in a.rho[i]:
                for b0, l0, c1 in a.rho[j]:
                    coef = c0 * c1 * s[k0][l0]
                    if coef:
                        for p, v in alg.mul_basis(a0, b0):
                            out[p] += coef * v
    twisted = StructureAlgebra(alg.basis, alg.unit, mult, name=f"{alg.name}_twist")
    return YDObject(h, alg.dim, twisted, coaction=[list(row) for row in a.coaction])


class TransportShapeError(ValueError):
    """Descriptor is not of the generator shape the transport is defined on."""


def psi_transport(d: CFamilyDescriptor, s, inverse: bool = False) -> CFamilyDescriptor:
    """Ψ_s on generator classes: [C(a;0,1)] ↦ [C(a + s/2; s, 1)].

    The map twists by the lazy cocycle σ_s and reinduces the action from
    r_s; the descriptor arithmetic is validated structurally against that
    construction on every call.
    """
    s = Q(s)
    if inverse:
        if (d.t, d.s) != (s, Q(1)):
            raise TransportShapeError(f"Ψ_s⁻¹ needs shape (a;{s},1), got {d!r}")
        return CFamilyDescriptor(d.a - s / 2, 0, 1)
    if (d.t, d.s) != (Q(0), Q(1)):
        raise TransportShapeError(f"Ψ_s needs shape (a;0,1), got {d!r}")
    result = CFamilyDescriptor(d.a + s / 2, s, 1)
    _validate_psi(d, s, result)
    return result


def _validate_psi(d: CFamilyDescriptor, s: Fraction, result: CFamilyDescriptor) -> None:
    twisted = cocycle_twist(build_C(d), build_sigma(s))
    candidate = induced_action(twisted, build_rt_form(s))
    if not candidate.same_structure(build_C(result)):
        raise AssertionError(f"Ψ transport of {d!r} does not rebuild {result!r}")


def phi_transport(d: CFamilyDescriptor, inverse: bool = False) -> CFamilyDescriptor:
    """Φ_t on generator classes: [C(a;1,t)] ↦ [C(a;t,1)] (t read off d).

    Structurally validated: the opposite algebra is given the H₄*-coaction
    ρ(x) = Σᵢ (eᵢ·x)⊗eᵢ*, transported along φ⁻¹, and the action reinduced
    from r_t must rebuild C(a;t,1).
    """
    if inverse:
        if d.s != 1:
            raise TransportShapeError(f"Φ⁻¹ needs shape (a;t,1), got {d!r}")
        return CFamilyDescriptor(d.a, 1, d.t)
    if d.t != 1:
        raise TransportShapeError(f"Φ needs shape (a;1,t), got {d!r}")
    t = d.s
    result = CFamilyDescriptor(d.a, t, 1)
    _validate_phi(d, t, result)
    return result


def _validate_phi(d: CFamilyDescriptor, t: Fraction, result: CFamilyDescriptor) -> None:
    h4 = build_h4()
    built = build_C(d)
    phinv = phi_iso().matrix.inverse()
    opp = opposite_algebra(built.alg)
    coaction = []
    for j in range(built.dim):
        out = zero_vec(built.dim * 4)
        for i in range(4):
            for p, v in built.images[j][i].items():
                for k, w in enumerate(phinv.col(i)):
                    if w:
                        out[p * 4 + k] += v * w
        coaction.append(out)
    candidate = induced_action(YDObject(h4, built.dim, opp, coaction=coaction), build_rt_form(t))
    if not candidate.same_structure(build_C(result)):
        raise AssertionError(f"Φ transport of {d!r} does not rebuild {result!r}")


# ---------------------------------------------------------------------------
# The Aut(H₄) action
# ---------------------------------------------------------------------------


def aut_twist(a, alpha):
    """Twist a YD algebra by the automorphism h ↦ αh: the action becomes
    h·_α b = α(h)·b and the coaction ρ_α(b) = b₍₀₎ ⊗ α⁻¹(b₍₁₎)."""
    alpha = Q(alpha)
    if alpha == 0:
        raise ValueError("automorphism parameter must be nonzero")
    scales = [Q(1), Q(1), alpha, alpha]
    action = [a.action[i] * scales[i] for i in range(4)]
    inv = [Q(1), Q(1), 1 / alpha, 1 / alpha]
    coaction = []
    for j in range(a.dim):
        row = zero_vec(a.dim * 4)
        for p, k, c in a.rho[j]:
            row[p * 4 + k] = c * inv[k]
        coaction.append(row)
    return YDObject(a.hopf, a.dim, a.alg, action, coaction)


def aut_conjugate(d: CFamilyDescriptor, alpha) -> CFamilyDescriptor:
    """Conjugation by the Aut(H₄)-class of α: (a,t,s) ↦ (a, αt, s/α),
    structurally validated through the automorphism twist."""
    alpha = Q(alpha)
    if alpha == 0:
        raise ValueError("automorphism parameter must be nonzero")
    result = CFamilyDescriptor(d.a, alpha * d.t, d.s / alpha)
    if not aut_twist(build_C(d), alpha).same_structure(build_C(result)):
        raise AssertionError(f"Aut-twist of {d!r} does not rebuild {result!r}")
    return result


def build_h_alpha(alpha):
    """The module H_α: carrier H₄ with l·m = α(l₍₂₎) m S⁻¹(l₍₁₎) and
    the regular coaction Δ."""
    alpha = Q(alpha)
    h4 = build_h4()
    alg = h4.alg
    scales = [Q(1), Q(1), alpha, alpha]
    action = []
    for i in range(4):
        rows = [[Q(0)] * 4 for _ in range(4)]
        for p, q, c in h4.cop_sparse(i):
            sinv_p = h4.antipode_inv.col(p)
            for j in range(4):
                res = alg.mul_vec(alg.mul_vec(alg.basis_vec(q), alg.basis_vec(j)), sinv_p)
                for k, v in enumerate(res):
                    rows[k][j] += c * scales[q] * v
        action.append(Matrix(rows))
    coaction = [list(h4.cop[j]) for j in range(4)]
    return YDObject(h4, 4, action=action, coaction=coaction)


def aut_algebra(alpha):
    """A_α = End(H_α) with its H₄-Azumaya structure."""
    return end_yd(build_h_alpha(alpha), "plain")


# ---------------------------------------------------------------------------
# Subgroup intersections
# ---------------------------------------------------------------------------


@dataclass
class IntersectionVerdict:
    kind: str                       # "i-vs-iota" | "i-vs-i" | "iota-vs-iota"
    nontrivial: bool
    witness: CFamilyDescriptor | None
    note: str


def intersection_report(t, s) -> list[IntersectionVerdict]:
    """The three pairwise-intersection predicates for Im(i_t) and Im(ι_s).

    i_t vs ι_s meet beyond BW(k) iff ts = 1 (then they coincide); two i's
    (or two ι's) meet beyond BW(k) iff their parameters agree. Claimed
    nontrivial intersections come with an explicit Azumaya witness whose
    memberships are re-derived.
    """
    t, s = Q(t), Q(s)
    out = []

    if t * s == 1:
        w = _azumaya_i_iota_witness(t)
        out.append(IntersectionVerdict("i-vs-iota", True, w, "ts = 1: images coincide"))
    else:
        out.append(IntersectionVerdict("i-vs-iota", False, None, "ts ≠ 1: intersection is BW(k) only"))

    if t == s:
        w = _azumaya_i_witness(t)
        out.append(IntersectionVerdict("i-vs-i", True, w, "equal parameters: same subgroup"))
    else:
        out.append(IntersectionVerdict("i-vs-i", False, None, "t ≠ s: intersection is BW(k) only"))

    if t == s:
        w = _azumaya_iota_witness(t)
        out.append(IntersectionVerdict("iota-vs-iota", True, w, "equal parameters: same subgroup"))
    else:
        out.append(IntersectionVerdict("iota-vs-iota", False, None, "t ≠ s: intersection is BW(k) only"))

    for v in out:
        if v.witness is None:
            continue
        m = c_membership(v.witness)
        ok = (
            (v.kind == "i-vs-iota" and m.in_i == t and m.in_iota == s)
            or (v.kind == "i-vs-i" and m.in_i == t)
            or (v.kind == "iota-vs-iota" and m.in_iota == t)
        )
        if not ok:
            raise AssertionError("intersection witness fails its membership test")
    return out


def _azumaya_i_iota_witness(t: Fraction) -> CFamilyDescriptor:
    # (a; 1, t) lies in Im(i_t) ∩ Im(ι_{1/t}); Azumaya needs 2a ≠ t
    a = t if t != 0 else Q(1)
    if 2 * a == t:
        a = a + 1
    return CFamilyDescriptor(a, 1, t)


def _azumaya_i_witness(t: Fraction) -> CFamilyDescriptor:
    a = Q(1) if 2 != t else Q(2)
    return CFamilyDescriptor(a, 1, t)


def _azumaya_iota_witness(t: Fraction) -> CFamilyDescriptor:
    a = Q(1) if 2 != t else Q(2)
    return CFamilyDescriptor(a, t, 1)


def sharp_product_matches_presentation(d1: CFamilyDescriptor, d2: CFamilyDescriptor, pres=None) -> bool:
    """Lemma 2.2 cross-check: # product of two C's equals the quaternion
    presentation (as YD data, under 1#1, x#1, 1#y, x#y ↔ 1, X, Y, XY)."""
    pres = pres or c_product(d1, d2)
    built = sharp_product(build_C(d1), build_C(d2))
    named = quaternion_yd_algebra(pres)
    if not check_yd_algebra(named).ok:
        return False
    perm = [0, 2, 1, 3]  # quaternion index -> #-basis index
    for i in range(4):
        for j in range(4):
            v = named.alg.mul_vec(named.alg.basis_vec(i), named.alg.basis_vec(j))
            w = built.alg.mul_vec(built.alg.basis_vec(perm[i]), built.alg.basis_vec(perm[j]))
            if v != [w[perm[k]] for k in range(4)]:
                return False
    for h in range(4):
        for p in range(4):
            for q in range(4):
                if named.action[h].data[p][q] != built.action[h].data[perm[p]][perm[q]]:
                    return False
    for j in range(4):
        if sorted((perm[p], k, c) for p, k, c in named.rho[j]) != sorted(built.rho[perm[j]]):
            return False
    return True


def validate_c_iso(d1: CFamilyDescriptor, d2: CFamilyDescriptor, alpha,
                   action: bool = True, coaction: bool = True) -> bool:
    """Check that x ↦ α·y really is an isomorphism C(d1) → C(d2) of the
    requested kind (algebra map always; action/coaction intertwining on
    demand)."""
    alpha = Q(alpha)
    if alpha == 0:
        return False
    a1, a2 = build_C(d1), build_C(d2)
    m = Matrix.diag([1, alpha])
    for i in range(2):
        for j in range(2):
            lhs = m.apply(a1.alg.mul_vec(a1.alg.basis_vec(i), a1.alg.basis_vec(j)))
            rhs = a2.alg.mul_vec(m.apply(a1.alg.basis_vec(i)), m.apply(a1.alg.basis_vec(j)))
            if lhs != rhs:
                return False
    if action:
        for h in range(4):
            if m @ a1.action[h] != a2.action[h] @ m:
                return False
    if coaction:
        for j in range(2):
            lhs = zero_vec(8)
            for p, k, c in a1.rho[j]:
                for pp, v in enumerate(m.col(p)):
                    lhs[pp * 4 + k] += c * v
            rhs = zero_vec(8)
            for jj, c in enumerate(m.col(j)):
                if c:
                    for p, k, v in a2.rho[jj]:
                        rhs[p * 4 + k] += c * v
            if lhs != rhs:
                return False
    return True
