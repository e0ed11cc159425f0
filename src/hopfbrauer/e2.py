"""Nichols' eight-dimensional Hopf algebra E(2) and its bridge to H₄.

E(2) has generators c, x₁, x₂ with c² = 1, x_i² = 0, cx_i = −x_ic,
x₁x₂ = −x₂x₁, coproducts Δ(c) = c⊗c, Δ(x_i) = 1⊗x_i + x_i⊗c, and
antipode S(c) = c, S(x_i) = cx_i. The quasitriangular structure used
throughout is R_N, the pushforward of the canonical element of D(H₄)
along the surjection T; restriction along T and along the sections
θ_{λ,μ}: E(2) → H₄ moves module algebras between the two worlds.

The module also hosts the graded-central-simplicity machinery (the maps
F₀/G₀, which are F and G of the parity object: the same product over kℤ₂,
with g·x = (−1)^{|x|}x and ρ(x) = x⊗g^{|x|}, so the one F/G contraction of
``yd`` builds them), the exactness witness End(P) with its
failed strongly-inner analysis, and the closure counterexample where two
graded central simple representatives multiply into a class with no
graded central simple representative.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .algebra import (
    CheckReport,
    Grading,
    endomorphism_algebra,
    is_central_simple,
    super_center,
)
from .hopf import HopfAlgebra, HopfMorphism, QTStructure, _qt_from_int, _tensor
from .linalg import (
    IntVec,
    Matrix,
    _rational,
    dense_vec,
    in_span,
    over,
    sparse_sum,
    sparse_vec,
    zero_vec,
)
from .sweedler import build_dh4, build_h4, c_algebra, nichols
from .yd import (
    FGContraction,
    YDObject,
    action_grading,
    braiding_psi,
    check_module,
    check_module_algebra,
    check_yd_algebra,
    conjugation_implementer,
    end_yd,
    fg_maps,
    graded_flip,
    gradings,
    grouplike_index,
    induced_coaction,
    inner_witness,
    is_h_azumaya,
    module_tensor,
    sharp_product,
    strongly_inner_witness_e2,
)

Q = Fraction


# ---------------------------------------------------------------------------
# E(2) and R_N
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_e2() -> HopfAlgebra:
    """E(2) on the monomial basis c^a x₁^b x₂^d (index a + 2b + 4d)."""
    return nichols("E2", "c", ("x1", "x2"))


@functools.lru_cache(maxsize=None)
def build_RN() -> QTStructure:
    """R_N = ½(1⊗1 + 1⊗c + c⊗1 − c⊗c + x₁⊗cx₂ + x₁⊗x₂ + cx₁⊗cx₂ − cx₁⊗x₂), over 2."""
    r = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1, (2, 4): 1, (2, 5): 1, (3, 4): -1, (3, 5): 1}
    return _qt_from_int(build_e2(), 2, r)


@functools.lru_cache(maxsize=None)
def t_morphism() -> HopfMorphism:
    """The quasitriangular surjection T: D(H₄) → E(2).

    φ(g)⋈1 ↦ c, ε⋈g ↦ c, ε⋈h ↦ x₁, φ(h)⋈1 ↦ cx₂; on the basis f_i⋈e_j
    this is T(f_i⋈1)·T(1⋈e_j).
    """
    double, _ = build_dh4()
    e2 = build_e2()
    alg = e2.alg
    den_m = alg.int_sp[0]
    # 2·T of the dual basis of H₄* (c at 1, x₂ at 4, cx₂ at 5)
    t_dual = [
        {0: 1, 1: 1},      # 1*  = (φ(1)+φ(g))/2 ↦ (1+c)/2
        {0: 1, 1: -1},     # g*  = (φ(1)−φ(g))/2 ↦ (1−c)/2
        {5: 1, 4: 1},      # h*  = (φ(h)+φ(gh))/2 ↦ (cx₂+x₂)/2
        {5: 1, 4: -1},     # gh* = (φ(h)−φ(gh))/2 ↦ (cx₂−x₂)/2
    ]
    # D_m·T of 1, g, h and gh: 1, c, x₁ and c·x₁
    t_alg = [{0: den_m}, {1: den_m}, {2: den_m}, alg.mul_int({1: 1}, {2: 1})]
    cols = [dense_vec(over(alg.mul_int(f, a), 2 * den_m * den_m), alg.dim) for f in t_dual for a in t_alg]
    return HopfMorphism(double, e2, Matrix.from_cols(cols), name="T")


def theta(lam, mu) -> HopfMorphism:
    """The Hopf projection θ_{λ,μ}: E(2) → H₄, c ↦ g, x₁ ↦ λh, x₂ ↦ μh."""
    lam, mu = _rational(lam), _rational(mu)
    e2 = build_e2()
    h4 = build_h4()
    alg = h4.alg
    # c ↦ g, x₁ ↦ λh, x₂ ↦ μh as (den, integer sparse vector) of H₄ (g at 1, h at 2)
    images = {1: (1, {1: 1})}
    for gen, x in ((2, lam), (4, mu)):
        images[gen] = x.denominator, {2: x.numerator} if x else {}
    cols = []
    for d in (0, 1):
        for b in (0, 1):
            for a in (0, 1):
                den, acc = alg.int_unit
                for gen, e in ((1, a), (2, b), (4, d)):
                    if e:
                        den_g, image = images[gen]
                        acc, den = alg.mul_int(acc, image), den * alg.int_sp[0] * den_g
                cols.append(dense_vec(over(acc, den), alg.dim))  # column a + 2b + 4d
    return HopfMorphism(e2, h4, Matrix.from_cols(cols), name=f"theta({lam},{mu})")


# ---------------------------------------------------------------------------
# Module algebras over E(2)
# ---------------------------------------------------------------------------


def e2_action_from_generators(c, x1, x2) -> tuple[int, list[list[IntVec]]]:
    """(D, images), images[j][k] = D·c^a x₁^b x₂^d·e_j at k = a + 2b + 4d, from
    the (den, integer columns) of c, x₁ and x₂, each monomial formed once. D
    is the product of the dens, so D·m·e_j divides exactly by the den of each
    generator that the monomial m lacks."""
    den = c[0] * x1[0] * x2[0]
    images = []
    for j in range(len(c[1])):
        row = {0: {j: den}}
        for (d, cols), bit in ((x2, 4), (x1, 2), (c, 1)):
            row.update([(k + bit, sparse_sum((w // d, cols[q]) for q, w in v.items())) for k, v in row.items()])
        images.append([row[k] for k in range(8)])
    return den, images


def _e12(t) -> tuple[int, list[IntVec]]:
    """(den, integer columns) of t·E₁₂ on k²."""
    t = _rational(t)
    return t.denominator, [{}, {0: t.numerator} if t else {}]


# c = diag(1, −1) on k²
_DIAG = 1, [{0: 1}, {1: -1}]


def build_c_e2(a, t1, t2) -> YDObject:
    """The two-dimensional (E(2), R_N)-algebra: x² = a, c·x = −x,
    x₁·x = t₁, x₂·x = t₂, coaction induced by R_N."""
    a, t1, t2 = _rational(a), _rational(t1), _rational(t2)
    alg = c_algebra(a, f"C({a};{t1},{t2})@E2")
    images = e2_action_from_generators(_DIAG, _e12(t1), _e12(t2))
    return induced_coaction(YDObject.from_int(build_e2(), 2, alg, images), build_RN())


def restrict_along(f: HopfMorphism, a: YDObject, r_source: QTStructure | None = None) -> YDObject:
    """Pull a module algebra over f.target back to f.source (action ∘ f).

    Any coaction of ``a`` is dropped. When a source quasitriangular
    structure is supplied the result is the full YD algebra with the
    induced coaction; otherwise a plain module algebra. Module-algebra
    validity is re-checked.
    """
    src = f.source
    (den_f, cols), (den_a, rows) = f.matrix.scaled_cols(), a.int_images
    images = [[sparse_sum((c, row[k]) for k, c in col.items()) for col in cols] for row in rows]
    out = YDObject.from_int(src, a.dim, a.alg, (den_f * den_a, images))
    check_module_algebra(out).raise_if_failed()
    if r_source is None:
        return out
    return induced_coaction(out, r_source)


def bq_grad_member(a: YDObject) -> bool:
    """Do the action grading and the coaction grading of this representative
    coincide?"""
    return gradings(a).equal


# ---------------------------------------------------------------------------
# Graded central simplicity via F₀ / G₀
# ---------------------------------------------------------------------------


@functools.cache
def _k_z2() -> HopfAlgebra:
    """The group algebra kℤ₂ on the basis 1, g, with g grouplike and g² = 1."""
    return nichols("kZ2", "g", ())


def parity_object(a: YDObject) -> YDObject:
    """``a``'s product as a YD algebra over kℤ₂, graded by the action of the
    grouplike of a's Hopf algebra: g·e_j = (−1)^{|j|}e_j, ρ(e_j) = e_j ⊗ g^{|j|}.

    Its F and G are F₀ and G₀: z₍₁₎·y = (−1)^{|z||y|}y in F(x#y)(z) and
    x₍₁₎·z = (−1)^{|x||z|}z in G(x#y)(z). ``GradingError`` when a basis
    vector is not homogeneous.
    """
    parity = action_grading(a, grouplike_index(a.hopf))
    images = [[{j: 1}, {j: (-1) ** p}] for j, p in enumerate(parity)]
    rho = [[(j, p, 1)] for j, p in enumerate(parity)]
    return YDObject.from_int(_k_z2(), a.dim, a.alg, (1, images), (1, rho))


def f0_g0_matrices(a: YDObject) -> tuple[Matrix, Matrix]:
    """The parity-flip versions of F and G.

    F₀(x#y)(z) = (−1)^{|z||y|} x z y and G₀(x#y)(z) = (−1)^{|x||z|} x z y,
    the maps whose bijectivity says the underlying superalgebra is graded
    central simple: F and G of the parity object. Only the grouplike action
    (the grading) enters.
    """
    return fg_maps(parity_object(a))


def is_graded_central_simple(a: YDObject) -> bool:
    """F₀ and G₀ are both bijective."""
    return is_h_azumaya(parity_object(a))


# ---------------------------------------------------------------------------
# The kernel witness of the exact sequence
# ---------------------------------------------------------------------------


class KernelWitness:
    def __init__(
        self,
        u: Matrix,
        w: Matrix,
        big_u: Matrix,
        big_w: Matrix,
        p_module: YDObject,  # over D(H₄)
        end_p: YDObject,  # over E(2), coaction induced by R_N
        report: CheckReport,
        steps: dict | None = None,  # step label -> bool
    ):
        self.u, self.w, self.big_u, self.big_w = u, w, big_u, big_w
        self.p_module, self.end_p, self.report = p_module, end_p, report
        self.steps = {} if steps is None else steps


def _witness_matrices() -> tuple[Matrix, Matrix, Matrix, Matrix]:
    u = Matrix([[1, 0], [0, -1]])
    w = Matrix([[0, 0], [-2, 0]])
    big_u = -1 * u
    big_w = Matrix([[0, 1], [0, 0]])
    return u, w, big_u, big_w


def witness_p_module() -> YDObject:
    """P = k² as a D(H₄)-module: g, h, φ(g), φ(h) act by u, w, U, W."""
    double, _ = build_dh4()
    u, w, big_u, big_w = _witness_matrices()
    act_alg = [Matrix.identity(2), u, w, u @ w]
    act_dual = [
        (Matrix.identity(2) + big_u) * Q(1, 2),   # 1*  = φ((1+g)/2)
        (Matrix.identity(2) - big_u) * Q(1, 2),   # g*  = φ((1−g)/2)
        (big_w + big_u @ big_w) * Q(1, 2),        # h*  = φ((h+gh)/2)
        (big_w - big_u @ big_w) * Q(1, 2),        # gh* = φ((h−gh)/2)
    ]
    action = [(act_dual[i] @ act_alg[j]).int_rows for i in range(4) for j in range(4)]
    # e_k·e_j is column j of action[k], every entry lifted to the lcm of the dens
    den = math.lcm(*(d for rows in action for d, _ in rows))
    images = [[{i: v[j] * (den // d) for i, (d, v) in enumerate(rows) if j in v} for rows in action] for j in range(2)]
    return YDObject.from_int(double, 2, images=(den, images))


def witness_end_p() -> YDObject:
    """End(P) as an (E(2), R_N)-Azumaya algebra: c·f = ufu⁻¹,
    x₁·f = wfu⁻¹ + fuw, (cx₂)·f = Wf − UfU⁻¹W."""
    e2 = build_e2()
    u, w, big_u, big_w = _witness_matrices()
    u_inv = u.inverse()
    big_u_inv = big_u.inverse()
    d = 2
    alg = endomorphism_algebra(d)

    def op_map(fun) -> tuple[int, list[IntVec]]:
        """(D, the columns of f ↦ fun(f) on the matrix units times D), E_pq at
        q·d + p, read from the integer rows of each image over their lcm D."""
        images = [fun(Matrix([[int((r, s) == (p, q)) for s in range(d)] for r in range(d)])).int_rows
                  for q in range(d) for p in range(d)]
        den = math.lcm(*(e for rows in images for e, _ in rows))
        return den, [{j * d + i: x * (den // e) for i, (e, v) in enumerate(rows) for j, x in v.items()}
                     for rows in images]

    c = op_map(lambda f: u @ f @ u_inv)
    x1 = op_map(lambda f: w @ f @ u_inv + f @ u @ w)
    cx2 = op_map(lambda f: big_w @ f - big_u @ f @ big_u_inv @ big_w)
    x2 = c[0] * cx2[0], [sparse_sum((v, c[1][k]) for k, v in col.items()) for col in cx2[1]]  # x₂ = c·(cx₂)
    images = e2_action_from_generators(c, x1, x2)
    return induced_coaction(YDObject.from_int(e2, alg.dim, alg, images), build_RN())


def kernel_witness() -> KernelWitness:
    """Build P and End(P) and verify the six-step bundle.

    (i) P is a D(H₄)-module; (ii) P is not an E(2)-module (g and φ(g)
    differ on P); (iii) End(P) is an E(2)-module algebra; (iv) End(P) is
    (E(2),R_N)-Azumaya; (v) the strongly-inner analysis fails on both sign
    branches; (vi) g and φ(g) agree on P⊗P, so the class squares to one.
    """
    rep = CheckReport("kernel witness bundle")
    steps: dict[str, bool] = {}
    u, w, big_u, big_w = _witness_matrices()
    p = witness_p_module()

    step_i = check_module(p)
    rep.merge(step_i)
    steps["i: P is a D(H4)-module"] = step_i.ok

    named = p.hopf.meta["named"]
    g_on_p = p.act_matrix(named["g"])
    phig_on_p = p.act_matrix(named["phi_g"])
    rep.require(g_on_p == u and phig_on_p == big_u, "(stored matrices) named actions differ")
    steps["ii: P is not an E(2)-module"] = g_on_p != phig_on_p
    rep.require(steps["ii: P is not an E(2)-module"], "(ii) g and φ(g) should differ on P")

    end_p = witness_end_p()
    step_iii = check_module_algebra(end_p)
    rep.merge(step_iii)
    yd_iii = check_yd_algebra(end_p)
    rep.merge(yd_iii)
    steps["iii: End(P) is an E(2)-module algebra"] = step_iii.ok and yd_iii.ok

    # the explicit action formulas agree with the canonical End(P) structure
    canonical = end_yd(p)
    c, x1, x2 = (build_e2().meta[key] for key in ("c", "x1", "x2"))  # cx₂ is at index c + x2
    for name, label, e2_gen in (("g", "g", c), ("h", "h", x1), ("φ(h)", "phi_h", c + x2)):
        rep.require(
            end_p.act_matrix((1, {e2_gen: 1})) == canonical.act_matrix(named[label]),
            f"End(P) action of {name} disagrees with the canonical one",
        )

    steps["iv: End(P) is (E(2),R_N)-Azumaya"] = is_h_azumaya(end_p)
    rep.require(steps["iv: End(P) is (E(2),R_N)-Azumaya"], "(iv) End(P) must be (E(2),R_N)-Azumaya")
    rep.require(gradings(end_p).equal, "End(P) gradings must coincide")

    strong = strongly_inner_witness_e2(end_p)
    steps["v: strongly-inner search fails on both branches"] = (
        not strong.strongly_inner and len(strong.branch_failures) == 2
    )
    rep.require(not strong.strongly_inner, "(v) E(2)-action on End(P) must not be strongly inner")
    rep.data["strong_branches"] = strong.branch_failures
    rep.require(len(strong.branch_failures) == 2, "(v) both sign branches must be analysed")

    pp = module_tensor(p, p)
    steps["vi: g and φ(g) agree on P⊗P"] = pp.act_matrix(named["g"]) == pp.act_matrix(named["phi_g"])
    rep.require(steps["vi: g and φ(g) agree on P⊗P"], "(vi) g and φ(g) must agree on P⊗P")
    return KernelWitness(u, w, big_u, big_w, p, end_p, rep, steps)


# ---------------------------------------------------------------------------
# Inner actions and the closure counterexample
# ---------------------------------------------------------------------------


class Thm61Report:
    def __init__(
        self,
        x1_inner: bool,
        x2_inner: bool,
        graded_central_simple: bool,
        e2_inner: bool,
        central_simple: bool,
        x1_witness: list | None,
        x2_witness: list | None,
    ):
        self.x1_inner, self.x2_inner = x1_inner, x2_inner
        self.graded_central_simple = graded_central_simple
        self.e2_inner, self.central_simple = e2_inner, central_simple
        self.x1_witness, self.x2_witness = x1_witness, x2_witness

    @property
    def equivalent(self) -> bool:
        return self.x1_inner == self.x2_inner == self.graded_central_simple

    @property
    def addendum_holds(self) -> bool:
        return self.e2_inner == self.central_simple


def generator_error(h: HopfAlgebra) -> str | None:
    """One line naming the first of meta's c, x1, x2 that fails, on the stores
    with 1 read from ``int_unit``: c a grouplike other than 1, and x1 ≠ x2
    with Δ(xᵢ) = 1⊗xᵢ + xᵢ⊗c; None when none fails."""
    (den, rows), (den_u, unit) = h.int_cop, h.alg.int_unit
    c, x1, x2 = (h.meta[key] for key in ("c", "x1", "x2"))
    delta = [{(p, q): den_u * v for p, q, v in row} for row in rows]  # D_u·D_Δ·Δ
    if delta[c] != {(c, c): den_u * den} or unit == {c: den_u}:
        return f"meta 'c' = {c} is not a grouplike other than 1"
    if x1 == x2:
        return f"meta 'x2' = {x2} is 'x1'"
    for key, x in (("x1", x1), ("x2", x2)):
        if delta[x] != sparse_sum(((den, {(k, x): u for k, u in unit.items()}), (den * den_u, {(x, c): 1}))):
            return f"meta {key!r} = {x} has Δ({key}) ≠ 1⊗{key} + {key}⊗c"
    return None


def theorem61_check(a: YDObject) -> Thm61Report:
    """Evaluate the three equivalent predicates for an (E(2),R_N)-Azumaya
    algebra, plus the addendum comparing full inner-ness with central
    simplicity."""
    e2 = a.hopf
    c_idx, x1_idx, x2_idx = e2.meta["c"], e2.meta["x1"], e2.meta["x2"]
    v1 = inner_witness(a, x1_idx, c_idx)
    v2 = inner_witness(a, x2_idx, c_idx)
    gcs = is_graded_central_simple(a)
    cs = is_central_simple(a.alg)
    u = conjugation_implementer(a, c_idx)
    e2_inner = u is not None and v1 is not None and v2 is not None
    return Thm61Report(v1 is not None, v2 is not None, gcs, e2_inner, cs, v1, v2)


class NotSubgroupReport:
    def __init__(
        self,
        t: Fraction,
        q: Fraction,
        factors_azumaya: tuple[bool, bool],
        factors_gcs: tuple[bool, bool],
        product_azumaya: bool,
        product_gcs: bool,
        super_central_witness: list[Fraction] | None,
        x1_witness_missing: bool,
        x2_witness_missing: bool,
    ):
        self.t, self.q = t, q
        self.factors_azumaya, self.factors_gcs = factors_azumaya, factors_gcs
        self.product_azumaya, self.product_gcs = product_azumaya, product_gcs
        self.super_central_witness = super_central_witness
        self.x1_witness_missing, self.x2_witness_missing = x1_witness_missing, x2_witness_missing

    @property
    def closure_fails(self) -> bool:
        return (
            all(self.factors_azumaya)
            and all(self.factors_gcs)
            and self.product_azumaya
            and not self.product_gcs
            and self.super_central_witness is not None
            and self.x1_witness_missing
            and self.x2_witness_missing
        )


# the values of t and q for which the closure counterexample is not stated
CLOSURE_EXCLUDED_T = (0, 1)
CLOSURE_EXCLUDED_Q = (2,)


def closure_params(t, q) -> tuple[Fraction, Fraction]:
    """(t, q) as Fractions; ``ValueError`` unless t ∉ {0,1} and q ≠ 2
    (``CLOSURE_EXCLUDED_T``, ``CLOSURE_EXCLUDED_Q``), the parameters for
    which the closure counterexample is stated."""
    t, q = _rational(t), _rational(q)
    if t in CLOSURE_EXCLUDED_T or q in CLOSURE_EXCLUDED_Q:
        raise ValueError("need t ∉ {0,1} and q ≠ 2")
    return t, q


def not_subgroup_demo(t, q) -> NotSubgroupReport:
    """The closure failure: C(1;t,2) and C(1;1,q) are (E(2),R_N)-Azumaya and
    graded central simple, but their product contains the super-central
    odd element X−Y, is not graded central simple, and admits no inner
    witness for either x_i. Requires t ∉ {0,1} and q ≠ 2."""
    t, q = closure_params(t, q)
    e2 = build_e2()
    a = build_c_e2(1, t, 2)
    b = build_c_e2(1, 1, q)
    prod = sharp_product(a, b)
    parity = action_grading(prod, e2.meta["c"])
    x_minus_y = zero_vec(4)
    x_minus_y[2] = Q(1)   # X = x#1 at flat (1,0)
    x_minus_y[1] = Q(-1)  # Y = 1#y at flat (0,1)
    sc = super_center(prod.alg, Grading(prod.alg, parity))
    witness = x_minus_y if in_span(sc, x_minus_y) else None
    v1 = inner_witness(prod, e2.meta["x1"], e2.meta["c"])
    v2 = inner_witness(prod, e2.meta["x2"], e2.meta["c"])
    return NotSubgroupReport(
        t,
        q,
        (is_h_azumaya(a), is_h_azumaya(b)),
        (is_graded_central_simple(a), is_graded_central_simple(b)),
        is_h_azumaya(prod),
        is_graded_central_simple(prod),
        witness,
        v1 is None,
        v2 is None,
    )


def build_e2_module(dim2_params: tuple = (1, 0)) -> YDObject:
    """A two-dimensional E(2)-module (c = diag(1,−1), x_i = λ_i·E₁₂) with
    the R_N-induced coaction."""
    l1, l2 = dim2_params
    images = e2_action_from_generators(_DIAG, _e12(l1), _e12(l2))
    mod = YDObject.from_int(build_e2(), 2, images=images)
    check_module(mod).raise_if_failed()
    return induced_coaction(mod, build_RN())


def prop62_instance_check(a: YDObject, q_module: YDObject) -> dict:
    """Inner-ness of the x_i-actions is invariant under # with End(Q)."""
    e2 = a.hopf
    c_idx = e2.meta["c"]
    end_q = end_yd(q_module, "plain")
    stabilized = sharp_product(a, end_q)
    out = {}
    for name, idx in (("x1", e2.meta["x1"]), ("x2", e2.meta["x2"])):
        before = inner_witness(a, idx, c_idx) is not None
        after = inner_witness(stabilized, idx, c_idx) is not None
        out[name] = (before, after, before == after)
    out["agree"] = all(v[2] for k, v in out.items() if k != "agree")
    return out


# ---------------------------------------------------------------------------
# Decomposition identities of the braiding and of F/G over (E(2), R_N)
# ---------------------------------------------------------------------------


def braiding_decomposition_residual(v: YDObject, w: YDObject, vvec, wvec) -> list[Fraction]:
    """ψ(v⊗w) − ψ₀(v⊗w) − (−1)^{|w|+1} ψ₀(x₁·v ⊗ x₂·w) for homogeneous v, w."""
    e2 = v.hopf
    c_idx, x1_idx, x2_idx = e2.meta["c"], e2.meta["x1"], e2.meta["x2"]
    rn = build_RN()
    par_v = action_grading(v, c_idx)
    par_w = action_grading(w, c_idx)
    wpar = _parity_of(wvec, par_w)
    psi = braiding_psi(v, w, rn)
    psi0 = graded_flip(par_v, par_w)

    def tensor(x, y) -> list[Fraction]:  # x ⊗ y, e_i ⊗ e_j at i·dim(w) + j
        return dense_vec(_tensor(sparse_vec(x).items(), sparse_vec(y).items(), w.dim), v.dim * w.dim)

    x = tensor(vvec, wvec)
    lhs = psi.apply(x)
    t1 = psi0.apply(x)
    xv = dense_vec(v.act({x1_idx: 1}, sparse_vec(vvec)), v.dim)
    xw = dense_vec(w.act({x2_idx: 1}, sparse_vec(wvec)), w.dim)
    t2 = psi0.apply(tensor(xv, xw))
    sign = Q(-1) if wpar == 0 else Q(1)
    return [l - (p + sign * s) for l, p, s in zip(lhs, t1, t2)]


def _parity_of(vecv, parity) -> int:
    pars = {parity[i] for i, c in enumerate(vecv) if c}
    if len(pars) != 1:
        raise ValueError("element is not homogeneous")
    return pars.pop()


def fg_decomposition_residuals(a: YDObject, xv, yv, zv) -> tuple[list[Fraction], list[Fraction]]:
    """Residuals of the two decompositions, for homogeneous x, y, z:

        F(x#y)(z) = F₀(x#y)(z) + (−1)^{|z|+1} F₀(x # x₁·y)(x₂·z)
        G(x#y)(z) = G₀(x#y)(z) + (−1)^{|x|+1} G₀(x₂·x # y)(x₁·z)

    F and G are evaluated on ``a``, F₀ and G₀ as F and G of its parity
    view. ``ValueError`` unless each of x, y, z is nonzero and homogeneous.
    """
    e2 = a.hopf
    x1_idx, x2_idx = e2.meta["x1"], e2.meta["x2"]
    parity = action_grading(a, e2.meta["c"])
    px, _, pz = (_parity_of(v, parity) for v in (xv, yv, zv))
    x, y, z = (sparse_vec(v) for v in (xv, yv, zv))

    fg, fg0 = FGContraction(a), FGContraction(parity_object(a))
    # the last term of each residual is −(−1)^{|z|+1} = (−1)^{|z|} (for G, |x|) times F₀ (G₀)
    res_f = sparse_sum((
        (1, fg.f_value(x, y, z)),
        (-1, fg0.f_value(x, y, z)),
        ((-1) ** pz, fg0.f_value(x, a.act({x1_idx: 1}, y), a.act({x2_idx: 1}, z))),
    ))
    res_g = sparse_sum((
        (1, fg.g_value(x, y, z)),
        (-1, fg0.g_value(x, y, z)),
        ((-1) ** px, fg0.g_value(a.act({x2_idx: 1}, x), y, a.act({x1_idx: 1}, z))),
    ))
    return dense_vec(res_f, a.dim), dense_vec(res_g, a.dim)
