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
from fractions import Fraction

from .algebra import CheckReport, StructureAlgebra, opposite_algebra
from .hopf import (
    HopfAlgebra,
    HopfMorphism,
    QTStructure,
    _built_on,
    _counit_laws,
    _int_pairs,
    _qt_from_int,
    _t2_int,
    _t3_int,
    _tensor,
    drinfeld_double,
)
from .linalg import IntVec, Matrix, _rational, dense_vec, over, rational_is_square, scaled, sparse_sum
from .yd import (
    YDObject,
    check_yd_algebra,
    end_yd,
    induced_action,
    refuse_assignment,
    sharp_product,
    strongly_inner_witness_h4,
)

Q = Fraction


# ---------------------------------------------------------------------------
# H₄ and its quasitriangular / cotriangular structures
# ---------------------------------------------------------------------------


def nichols(name: str, grouplike: str, nilpotents: tuple[str, ...]) -> HopfAlgebra:
    """Nichols' E(n), n = len(nilpotents), on the monomials c^a x₁^b₁⋯xₙ^bₙ at
    index a + 2b₁ + ⋯ + 2ⁿbₙ, labelled by their letters or "1": c² = 1, xᵢ² = 0,
    cxᵢ = −xᵢc, xᵢxⱼ = −xⱼxᵢ, Δ(c) = c⊗c, Δ(xᵢ) = 1⊗xᵢ + xᵢ⊗c, S(xᵢ) = cxᵢ.
    E(0) = kℤ₂ and E(1) = H₄; ``meta`` names each generator by its index."""
    letters, dim = (grouplike, *nilpotents), 2 << len(nilpotents)
    gens = [1 << i for i in range(len(letters))]  # c, x₁, …, xₙ
    words = [[x for x in gens if k & x] for k in range(dim)]
    basis = ["".join(w for w, x in zip(letters, gens) if k & x) or "1" for k in range(dim)]

    def product(k: int, l: int) -> list[tuple[int, int]]:
        # each letter of l passes the x's of k after it: all of them for c, the xⱼ with j > i for xᵢ
        if k & l & ~1:
            return []
        return [(k ^ l, (-1) ** sum((k // (2 * x)).bit_count() for x in words[l]))]

    alg = StructureAlgebra.from_int(basis, (1, {0: 1}), [[product(k, l) for l in range(dim)] for k in range(dim)],
                                    1, name=name)
    # Δ, S and S⁻¹ (S⁻¹(xᵢ) = −cxᵢ) extend the generator rules (anti-)multiplicatively, exact over D_m = 1
    delta = {x: {(0, x): 1, (x, 1): 1} if x > 1 else {(1, 1): 1} for x in gens}
    cop = [functools.reduce(lambda acc, x: _t2_int(alg.int_sp[1], acc, delta[x]), w, {(0, 0): 1}) for w in words]
    antipodes = [(1, [functools.reduce(lambda acc, x: alg.mul_int(acc, {x | 1: sign} if x > 1 else {1: 1}),
                                       reversed(w), {0: 1}) for w in words]) for sign in (1, -1)]
    return HopfAlgebra.from_int(alg, (1, [[(*pq, c) for pq, c in row.items()] for row in cop]), (1, {0: 1, 1: 1}),
                                *antipodes, name=name, meta={**dict(zip(letters, gens)), "pi_keep": (0, 1)})


@functools.lru_cache(maxsize=None)
def build_h4() -> HopfAlgebra:
    """Sweedler's four-dimensional Hopf algebra on the basis (1, g, h, gh)."""
    return nichols("H4", "g", ("h",))


def build_rt(t) -> QTStructure:
    """The triangular structure R_t = ½(1⊗1 + 1⊗g + g⊗1 − g⊗g)
    + (t/2)(h⊗h + h⊗gh + gh⊗gh − gh⊗h) of H₄, over 2q for t = p/q."""
    p, q = _rational(t).as_integer_ratio()
    r = {(0, 0): q, (0, 1): q, (1, 0): q, (1, 1): -q}
    if p:
        r.update({(2, 2): p, (2, 3): p, (3, 2): -p, (3, 3): p})
    return _qt_from_int(build_h4(), 2 * q, r)


def build_rt_form(t) -> QTStructure:
    """The cotriangular structure r_t of H₄, as R_r on H₄*, over q for t = p/q."""
    p, q = _rational(t).as_integer_ratio()
    r = {(0, 0): q, (0, 1): q, (1, 0): q, (1, 1): -q}
    if p:
        r.update({(2, 2): p, (2, 3): -p, (3, 2): p, (3, 3): p})
    return _qt_from_int(build_h4().dual, q, r)


@functools.lru_cache(maxsize=None)
def build_h4_dual() -> HopfAlgebra:
    return build_h4().dual


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
    """D(H₄) with canonical ℛ = Σᵢ (ε⋈e_i) ⊗ (e_i*⋈1) and named generators:
    meta["named"] holds ε⋈e_i and φ(e_i)⋈1 as (D, {index: integer}), the
    form of ``int_unit``."""
    h4 = build_h4()
    double, canonical = drinfeld_double(h4)
    den_f, phi = phi_iso().matrix.scaled_cols()
    # ε, the unit of H₄*, and the unit of H₄, read from their stores
    (den_e, eps), (den_u, one) = build_h4_dual().alg.int_unit, h4.alg.int_unit
    named: dict[str, tuple[int, IntVec]] = {}
    for label, idx in (("one", 0), ("g", 1), ("h", 2), ("gh", 3)):
        named[label] = den_e, _tensor(eps.items(), ((idx, 1),), 4)
        named["phi_" + label] = den_f * den_u, _tensor(phi[idx].items(), one.items(), 4)
    double.meta["named"] = named
    double.meta["g"] = None  # the grading generators are combinations, see named
    return double, canonical


def dh4_relations() -> list[tuple[str, list[Fraction]]]:
    """The ten defining relations of D(H₄), each as an element that must vanish."""
    double, _ = build_dh4()
    a = double.alg
    elements = [double.meta["named"][label] for label in ("g", "h", "phi_g", "phi_h")] + [a.int_unit]
    # g, h, φ(g), φ(h) and 1 lifted to one scale, the lcm of theirs
    den = math.lcm(*(d for d, _ in elements))
    g, h, fg, fh, one = ({k: c * (den // d) for k, c in v.items()} for d, v in elements)
    m, x = a.mul_int, den * a.int_sp[0]  # a product is over den·x, so 1 and a generator are lifted by x

    def rel(*terms):
        return dense_vec(over(sparse_sum(terms), den * x), a.dim)

    return [
        ("(φ(h)⋈1)² = 0", rel((1, m(fh, fh)))),
        ("(φ(g)⋈1)² = ε⋈1", rel((1, m(fg, fg)), (-x, one))),
        ("φ(h)φ(g) + φ(g)φ(h) = 0", rel((1, m(fh, fg)), (1, m(fg, fh)))),
        ("(ε⋈h)² = 0", rel((1, m(h, h)))),
        ("hg + gh = 0", rel((1, m(h, g)), (1, m(g, h)))),
        ("(ε⋈g)² = ε⋈1", rel((1, m(g, g)), (-x, one))),
        ("φ(h)g + gφ(h) = 0", rel((1, m(fh, g)), (1, m(g, fh)))),
        ("φ(g)h + hφ(g) = 0", rel((1, m(fg, h)), (1, m(h, fg)))),
        ("gφ(g) − φ(g)g = 0", rel((1, m(g, fg)), (-1, m(fg, g)))),
        ("φ(h)h − hφ(h) = φ(g) − g", rel((1, m(fh, h)), (-1, m(h, fh)), (-x, fg), (x, g))),
    ]


# ---------------------------------------------------------------------------
# The two-dimensional family C(a;t,s)
# ---------------------------------------------------------------------------


class CFamilyDescriptor:
    """The triple (a, t, s) naming the algebra C(a;t,s): x² = a, g·x = −x,
    h·x = t, ρ(x) = x⊗g + s⊗h. Frozen, equal and hashed on (a, t, s)."""

    def __init__(self, a: Fraction, t: Fraction, s: Fraction):
        self.__dict__.update(a=_rational(a), t=_rational(t), s=_rational(s))

    __setattr__ = __delattr__ = refuse_assignment

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.t, self.s) == (other.a, other.t, other.s)

    def __hash__(self) -> int:
        return hash((self.a, self.t, self.s))

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
    x = _rational(x)
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


def c_algebra(a: Fraction, name: str) -> StructureAlgebra:
    """k[x]/(x² − a) on the basis 1, x, by ``StructureAlgebra.from_int``."""
    q = a.denominator
    table = [[[(0, q)], [(1, q)]], [[(1, q)], [(0, a.numerator)] if a else []]]
    return StructureAlgebra.from_int(["1", "x"], (1, {0: 1}), table, q, name=name)


def build_C(d: CFamilyDescriptor):
    """C(a;t,s) as a Yetter-Drinfeld module algebra over H₄, on integers."""
    q, r = d.t.denominator, d.s.denominator
    hx = {0: d.t.numerator} if d.t else {}
    # 1, g, h, gh on 1 and on x; gh acts like h on this carrier
    images = [[{0: q}, {0: q}, {}, {}], [{1: q}, {1: -q}, hx, hx]]
    rho = [[(0, 0, r)], [(1, 1, r)] + ([(0, 2, d.s.numerator)] if d.s else [])]  # x ⊗ g + s·1 ⊗ h
    return YDObject.from_int(build_h4(), 2, c_algebra(d.a, repr(d)), (q, images), (r, rho))


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


class CMembership:
    """Membership of [C(a;t,s)] in the images of i_l and ι_l.

    Each slot is "all" (the BW case t = s = 0), a specific parameter l,
    or None.
    """

    def __init__(self, in_i: object, in_iota: object):
        self.in_i, self.in_iota = in_i, in_iota


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


class CProductPresentation:
    """Generalized quaternion presentation of C(a;t,s) # C(a';t',s')."""

    def __init__(
        self,
        x_sq: Fraction,
        y_sq: Fraction,
        anticommutator: Fraction,  # XY + YX
        h_dot_x: Fraction,
        h_dot_y: Fraction,
        rho_x_s: Fraction,  # ρ(X) = X⊗g + rho_x_s⊗h
        rho_y_s: Fraction,
    ):
        self.x_sq, self.y_sq, self.anticommutator = x_sq, y_sq, anticommutator
        self.h_dot_x, self.h_dot_y = h_dot_x, h_dot_y
        self.rho_x_s, self.rho_y_s = rho_x_s, rho_y_s


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
    """Build the YD algebra named by a quaternion presentation directly, as
    integer terms: the product, the action and ρ over one scale, which
    ``from_int`` reduces for each."""
    h4 = build_h4()
    values = 1, p.x_sq, p.y_sq, p.anticommutator, p.x_sq * p.y_sq, p.h_dot_x, p.h_dot_y, p.rho_x_s, p.rho_y_s
    ints, den = scaled(dict(enumerate(values)))
    d, a, b, m, ab, t1, t2, s1, s2 = ints.values()
    # basis 1, X, Y, XY with X² = a, Y² = b, YX = m − XY
    mult = [
        [[(0, d)], [(1, d)], [(2, d)], [(3, d)]],
        [[(1, d)], [(0, a)], [(3, d)], [(2, a)]],
        [[(2, d)], [(0, m), (3, -d)], [(0, b)], [(1, -b), (2, m)]],
        [[(3, d)], [(1, m), (2, -a)], [(1, b)], [(0, -ab), (3, m)]],
    ]
    mult = [[[t for t in cell if t[1]] for cell in row] for row in mult]
    alg = StructureAlgebra.from_int(["1", "X", "Y", "XY"], (1, {0: 1}), mult, den, name="quaternion")
    # g·e_j = ±e_j; h·X = t₁, h·Y = t₂, extended by the module-algebra law:
    # h·(XY) = (1·X)(h·Y) + (h·X)(g·Y) = t₂X − t₁Y; gh·v = g·(h·v)
    sign = [1, -1, -1, 1]
    h_cols = [{k: c for k, c in col.items() if c} for col in ({}, {0: t1}, {0: t2}, {1: t2, 2: -t1})]
    images = [[{j: d}, {j: sign[j] * d}, col, {k: sign[k] * c for k, c in col.items()}] for j, col in enumerate(h_cols)]
    # ρ(X) = X⊗g + s₁⊗h, ρ(Y) = Y⊗g + s₂⊗h, and with g² = 1, h² = 0, hg = −gh:
    # ρ(XY) = X₍₀₎Y₍₀₎ ⊗ Y₍₁₎X₍₁₎ = XY⊗1 − s₂X⊗gh + s₁Y⊗gh
    rho = [[(0, 0, d)], [(1, 1, d), (0, 2, s1)], [(2, 1, d), (0, 2, s2)], [(3, 0, d), (1, 3, -s2), (2, 3, s1)]]
    return YDObject.from_int(h4, 4, alg, (den, images), (den, [[t for t in row if t[2]] for row in rho]))


# ---------------------------------------------------------------------------
# BM₀ invariants (Prop. "BM0"-style classification at s = 0)
# ---------------------------------------------------------------------------


class BM0Invariant:
    """((k,+)-component, Brauer-Wall square class) of [C(a;t,0)]."""

    def __init__(self, beta: Fraction, square_class: int):
        self.beta, self.square_class = beta, square_class


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


class LazyCocycle:
    """σ on the basis (1, g, h, gh), stored as Σ = Σ σ(e_i⊗e_j)·e_i*⊗e_j*:
    ``int_pairs`` = (D_s, {(i, j): D_s·σ(e_i⊗e_j)}), reduced as ``QTStructure``
    stores R."""

    def __init__(self, t: Fraction, sigma: tuple[int, dict]):
        self.t, self.int_pairs = t, _int_pairs(*sigma, 4, "σ")


def build_sigma(t) -> LazyCocycle:
    """The lazy cocycle σ_t: σ(h⊗h) = σ(gh⊗h) = t/2, σ(h⊗gh) = σ(gh⊗gh) = −t/2.

    These are the only normalized lazy cocycles of H₄: imposing laziness and
    the 2-cocycle identity on a generic table leaves exactly this
    one-parameter family.
    """
    t = _rational(t)
    p, q = (t / 2).as_integer_ratio()
    # over q, checked where it is consumed, by cocycle_twist
    s = {(0, 0): q, (0, 1): q, (1, 0): q, (1, 1): q}
    if p:
        s.update({(2, 2): p, (2, 3): -p, (3, 2): p, (3, 3): -p})
    return LazyCocycle(t, (q, s))


def check_lazy_cocycle(sigma: LazyCocycle) -> CheckReport:
    """σ's laws as those of Σ = Σ σ(e_i⊗e_j)·e_i*⊗e_j* on H₄* (Bichon–Carnovale):
    (ε⊗id)Σ = 1 = (id⊗ε)Σ, Σ₁₂·(Δ⊗id)Σ = Σ₂₃·(id⊗Δ)Σ and Σ·Δ(f) = Δ(f)·Σ,
    each failure named at the keys of its residual."""
    rep = CheckReport("lazy cocycle")
    hd = build_h4().dual
    den_s, s = sigma.int_pairs
    rep.failures += [law[0] for law in _counit_laws(hd, den_s, s, ("σ(1⊗·) ≠ ε", "σ(·⊗1) ≠ ε"))]
    sp, unit, cop = hd.alg.int_sp[1], hd.alg.int_unit[1].items(), hd.int_cop[1]
    # Σ₁₂·(Δ⊗id)Σ and Σ₂₃·(id⊗Δ)Σ over D_s²·D_u·D_Δ·D_m³; the residual's
    # keys: those of items on one side only
    lhs = _t3_int(sp, {(i, j, k): c * u for (i, j), c in s.items() for k, u in unit},
                  sparse_sum((c, {(p, q, j): d for p, q, d in cop[i]}) for (i, j), c in s.items()))
    rhs = _t3_int(sp, {(k, i, j): c * u for (i, j), c in s.items() for k, u in unit},
                  sparse_sum((c, {(i, p, q): d for p, q, d in cop[j]}) for (i, j), c in s.items()))
    rep.failures += [f"cocycle condition fails at ({i},{j},{m})" for i, j, m in sorted(dict(lhs.items() ^ rhs.items()))]
    # Σ·Δ(f_z) and Δ(f_z)·Σ over D_s·D_Δ·D_m²
    deltas = ({(p, q): c for p, q, c in terms} for terms in cop)
    pairs = {k for d in deltas for k, _ in _t2_int(sp, s, d).items() ^ _t2_int(sp, d, s).items()}
    rep.failures += [f"laziness fails at ({i},{j})" for i, j in sorted(pairs)]
    return rep


def cocycle_twist(a, sigma: LazyCocycle):
    """Twist a right H₄^op-comodule algebra (``ValueError`` for any other a):
    x•y = x₍₀₎y₍₀₎ σ(x₍₁₎⊗y₍₁₎).

    The coaction is unchanged; the output is a comodule algebra (any action
    on the input is dropped — transported actions are reinduced from the
    matching cotriangular structure by the caller). The product goes to
    ``StructureAlgebra.from_int`` as integers over D_c²·D_s·D_m.
    """
    _built_on(build_h4(), a, product=a.alg, coaction=a.int_rho)
    check_lazy_cocycle(sigma).raise_if_failed()
    alg, (den_c, rho) = a.alg, a.int_rho
    den_s, s = sigma.int_pairs
    table = [[sparse_sum((c0 * c1 * s[k0, l0], alg.mul_int({a0: 1}, {b0: 1})) for a0, k0, c0 in rho_i
                         for b0, l0, c1 in rho_j if (k0, l0) in s).items() for rho_j in rho] for rho_i in rho]
    twisted = StructureAlgebra.from_int(
        alg.basis, alg.int_unit, table, den_c * den_c * den_s * alg.int_sp[0], name=f"{alg.name}_twist"
    )
    return YDObject.from_int(build_h4(), alg.dim, twisted, rho=a.int_rho)


class TransportShapeError(ValueError):
    """Descriptor is not of the generator shape the transport is defined on."""


def psi_transport(d: CFamilyDescriptor, s, inverse: bool = False) -> CFamilyDescriptor:
    """Ψ_s on generator classes: [C(a;0,1)] ↦ [C(a + s/2; s, 1)].

    The map twists by the lazy cocycle σ_s and reinduces the action from
    r_s; the descriptor arithmetic is validated structurally against that
    construction on every call.
    """
    s = _rational(s)
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
    den_f, cols = phi_iso().matrix.inverse().scaled_cols()
    den_a, rows = built.int_images
    opp = opposite_algebra(built.alg)
    # ρ(e_j) = Σ_i (e_i·e_j) ⊗ φ⁻¹(e_i*), over D_a·D_φ
    rho = [
        [(*key, c) for key, c in sparse_sum(
            (v, {(p, k): w for k, w in cols[i].items()}) for i in range(4) for p, v in images[i].items()
        ).items()]
        for images in rows
    ]
    candidate = induced_action(YDObject.from_int(h4, built.dim, opp, rho=(den_a * den_f, rho)), build_rt_form(t))
    if not candidate.same_structure(build_C(result)):
        raise AssertionError(f"Φ transport of {d!r} does not rebuild {result!r}")


# ---------------------------------------------------------------------------
# The Aut(H₄) action
# ---------------------------------------------------------------------------


def _automorphism(alpha) -> Fraction:
    alpha = _rational(alpha)
    if alpha == 0:
        raise ValueError("automorphism parameter must be nonzero")
    return alpha


def aut_twist(a, alpha):
    """Twist a YD module or algebra over H₄ (``ValueError`` otherwise, or for
    α = 0) by the automorphism h ↦ αh: the action becomes
    h·_α b = α(h)·b and the coaction ρ_α(b) = b₍₀₎ ⊗ α⁻¹(b₍₁₎). On integers,
    α = p/q: the h and gh columns times p, the others times q, over D_a·q;
    the h and gh terms of ρ times q, the others times p, over D_c·p (each
    sign flipped when p < 0)."""
    alpha = _automorphism(alpha)
    _built_on(build_h4(), a, action=a.int_images, coaction=a.int_rho)
    p, q = alpha.numerator, alpha.denominator
    sign = 1 if p > 0 else -1
    (den_a, rows), (den_c, rho) = a.int_images, a.int_rho
    images = [[{x: c * (q if k < 2 else p) for x, c in v.items()} for k, v in enumerate(row)] for row in rows]
    rho = [[(x, k, c * sign * (p if k < 2 else q)) for x, k, c in row] for row in rho]
    return YDObject.from_int(a.hopf, a.dim, a.alg, (den_a * q, images), (den_c * p * sign, rho))


def aut_conjugate(d: CFamilyDescriptor, alpha) -> CFamilyDescriptor:
    """Conjugation by the Aut(H₄)-class of α: (a,t,s) ↦ (a, αt, s/α),
    structurally validated through the automorphism twist."""
    alpha = _automorphism(alpha)
    result = CFamilyDescriptor(d.a, alpha * d.t, d.s / alpha)
    if not aut_twist(build_C(d), alpha).same_structure(build_C(result)):
        raise AssertionError(f"Aut-twist of {d!r} does not rebuild {result!r}")
    return result


def build_h_alpha(alpha):
    """The module H_α: carrier H₄ with l·m = α(l₍₂₎) m S⁻¹(l₍₁₎) and
    the regular coaction Δ; the action over D_Δ·D_m²·D_S·den(α)."""
    alpha = _automorphism(alpha)
    h4 = build_h4()
    alg = h4.alg
    (den_d, cop), (den_s, sinv) = h4.int_cop, h4.int_s_inv
    scales = [alpha.denominator] * 2 + [alpha.numerator] * 2
    images = [
        [
            sparse_sum((c * scales[q], alg.mul_int(alg.mul_int({q: 1}, {j: 1}), sinv[p])) for p, q, c in cop[i])
            for i in range(4)
        ]
        for j in range(4)
    ]
    den = den_d * alg.int_sp[0] ** 2 * den_s * alpha.denominator
    return YDObject.from_int(h4, 4, images=(den, images), rho=h4.int_cop)


def aut_algebra(alpha):
    """A_α = End(H_α) with its H₄-Azumaya structure."""
    return end_yd(build_h_alpha(alpha), "plain")


# ---------------------------------------------------------------------------
# Subgroup intersections
# ---------------------------------------------------------------------------


class IntersectionVerdict:
    def __init__(self, kind: str, nontrivial: bool, witness: CFamilyDescriptor | None, note: str):
        self.kind = kind  # "i-vs-iota" | "i-vs-i" | "iota-vs-iota"
        self.nontrivial, self.witness, self.note = nontrivial, witness, note


def intersection_report(t, s) -> list[IntersectionVerdict]:
    """The three pairwise-intersection predicates for Im(i_t) and Im(ι_s).

    i_t vs ι_s meet beyond BW(k) iff ts = 1 (then they coincide); two i's
    (or two ι's) meet beyond BW(k) iff their parameters agree. Claimed
    nontrivial intersections come with an explicit Azumaya witness whose
    memberships are re-derived.
    """
    t, s = _rational(t), _rational(s)
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
    presentation (as YD data, under 1#1, x#1, 1#y, x#y ↔ 1, X, Y, XY), on
    the integer stores: both are canonical, so equal values have equal
    scales and integers."""
    pres = pres or c_product(d1, d2)
    built = sharp_product(build_C(d1), build_C(d2))
    named = quaternion_yd_algebra(pres)
    if not check_yd_algebra(named).ok:
        return False
    perm = [0, 2, 1, 3]  # quaternion index -> #-basis index
    (den_m, sp), (den_a, images), (den_c, rho) = named.alg.int_sp, named.int_images, named.int_rho
    sp_b, images_b, rho_b = built.alg.int_sp[1], built.int_images[1], built.int_rho[1]
    return (
        (den_m, den_a, den_c) == (built.alg.int_sp[0], built.int_images[0], built.int_rho[0])
        and all({perm[k]: c for k, c in sp[i][j]} == dict(sp_b[perm[i]][perm[j]]) for i in range(4) for j in range(4))
        and all(
            {perm[p]: c for p, c in images[q][h].items()} == images_b[perm[q]][h] for q in range(4) for h in range(4)
        )
        and all(sorted((perm[p], k, c) for p, k, c in rho[j]) == list(rho_b[perm[j]]) for j in range(4))
    )


def validate_c_iso(d1: CFamilyDescriptor, d2: CFamilyDescriptor, alpha,
                   action: bool = True, coaction: bool = True) -> bool:
    """Check that x ↦ α·y really is an isomorphism C(d1) → C(d2) of the
    requested kind (algebra map always; action/coaction intertwining on
    demand), on the integer stores: the map is diag(m)/q for α = p/q and
    m = (q, p), and each identity is lifted to one scale."""
    alpha = _rational(alpha)
    if alpha == 0:
        return False
    a1, a2 = build_C(d1), build_C(d2)
    q = alpha.denominator
    m = (q, alpha.numerator)
    (den_1, sp_1), (den_2, sp_2) = a1.alg.int_sp, a2.alg.int_sp
    # m(e_i·e_j) = m(e_i)·m(e_j), times q²·D_m·D_m'
    for i in range(2):
        for j in range(2):
            if {k: c * q * den_2 * m[k] for k, c in sp_1[i][j]} != {k: c * den_1 * m[i] * m[j] for k, c in sp_2[i][j]}:
                return False
    if action:
        # m(e_h·e_j) = e_h·m(e_j), times q·D_a·D_a'
        (den_1, im_1), (den_2, im_2) = a1.int_images, a2.int_images
        for j in range(2):
            for v1, v2 in zip(im_1[j], im_2[j]):
                if {k: c * den_2 * m[k] for k, c in v1.items()} != {k: c * den_1 * m[j] for k, c in v2.items()}:
                    return False
    if coaction:
        # (m⊗id)ρ(e_j) = ρ(m(e_j)), times q·D_c·D_c'
        (den_1, rho_1), (den_2, rho_2) = a1.int_rho, a2.int_rho
        for j in range(2):
            if {(a, k): c * den_2 * m[a] for a, k, c in rho_1[j]} != {(a, k): c * den_1 * m[j] for a, k, c in rho_2[j]}:
                return False
    return True
