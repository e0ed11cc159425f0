"""Nichols' eight-dimensional Hopf algebra E(2) and its bridge to H₄.

E(2) has generators c, x₁, x₂ with c² = 1, x_i² = 0, cx_i = −x_ic,
x₁x₂ = −x₂x₁, coproducts Δ(c) = c⊗c, Δ(x_i) = 1⊗x_i + x_i⊗c, and
antipode S(c) = c, S(x_i) = cx_i. The quasitriangular structure used
throughout is R_N, the pushforward of the canonical element of D(H₄)
along the surjection T; restriction along T and along the sections
θ_{λ,μ}: E(2) → H₄ moves module algebras between the two worlds.

The module also hosts the graded-central-simplicity machinery (the maps
F₀/G₀ built from the parity flip), the exactness witness End(P) with its
failed strongly-inner analysis, and the closure counterexample where two
graded central simple representatives multiply into a class with no
graded central simple representative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    CheckReport,
    Grading,
    StructureAlgebra,
    is_central_simple,
    super_center,
)
from .hopf import HopfAlgebra, HopfMorphism, QTStructure, qt_structure
from .linalg import Matrix, dense_vec, in_span, is_zero_vec, mat_det, sparse_vec, zero_vec
from .sweedler import build_dh4, build_h4, dh4_named
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


def _e2_label(a: int, b: int, d: int) -> str:
    word = ("c" if a else "") + ("x1" if b else "") + ("x2" if d else "")
    return word or "1"


def _e2_index(a: int, b: int, d: int) -> int:
    return a + 2 * b + 4 * d


@functools.lru_cache(maxsize=None)
def build_e2() -> HopfAlgebra:
    """E(2) on the monomial basis c^a x₁^b x₂^d (index a + 2b + 4d)."""
    exps = [(a, b, d) for d in (0, 1) for b in (0, 1) for a in (0, 1)]
    order = sorted(exps, key=lambda e: _e2_index(*e))
    basis = [_e2_label(*e) for e in order]
    dim = 8
    mult = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    for a, b, d in order:
        i = _e2_index(a, b, d)
        for a2, b2, d2 in order:
            j = _e2_index(a2, b2, d2)
            if b + b2 > 1 or d + d2 > 1:
                continue
            sign = (-1) ** (a2 * (b + d)) * (-1) ** (d * b2)
            mult[i][j][_e2_index((a + a2) % 2, b + b2, d + d2)] = Q(sign)
    alg = StructureAlgebra(basis, [1] + [0] * 7, mult, name="E2")

    # coproduct: multiplicative extension of the generator rules
    def t2(*pairs):
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in pairs:
            out[(i, j)] = out.get((i, j), Q(0)) + Q(c)
        return out

    def t2mul(x, y):
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), cx in x.items():
            for (k, l), cy in y.items():
                coef = cx * cy
                for p, cp in alg.mul_basis(i, k):
                    for q, cq in alg.mul_basis(j, l):
                        key = (p, q)
                        nv = out.get(key, Q(0)) + coef * cp * cq
                        if nv:
                            out[key] = nv
                        elif key in out:
                            del out[key]
        return out

    c_idx, x1_idx, x2_idx = 1, 2, 4
    delta_gen = {
        c_idx: t2(((c_idx, c_idx), 1)),
        x1_idx: t2(((0, x1_idx), 1), ((x1_idx, c_idx), 1)),
        x2_idx: t2(((0, x2_idx), 1), ((x2_idx, c_idx), 1)),
    }
    cop = [zero_vec(dim * dim) for _ in range(dim)]
    for a, b, d in order:
        i = _e2_index(a, b, d)
        acc = t2(((0, 0), 1))
        for gen, e in ((c_idx, a), (x1_idx, b), (x2_idx, d)):
            for _ in range(e):
                acc = t2mul(acc, delta_gen[gen])
        for (p, q), coef in acc.items():
            cop[i][p * dim + q] = coef
    counit = [1 if (b == 0 and d == 0) else 0 for a, b, d in order]

    # antipode: anti-multiplicative extension of S(c) = c, S(x_i) = cx_i
    s_gen = {c_idx: alg.basis_vec(c_idx), x1_idx: alg.basis_vec(3), x2_idx: alg.basis_vec(5)}
    cols = []
    for a, b, d in order:
        word = [c_idx] * a + [x1_idx] * b + [x2_idx] * d
        acc = alg.one()
        for gen in reversed(word):
            acc = alg.mul_vec(acc, s_gen[gen])
        cols.append(acc)
    antipode = Matrix.from_cols(cols)
    meta = {"c": 1, "x1": 2, "x2": 4, "pi_keep": (0, 1)}
    return HopfAlgebra(alg, cop, counit, antipode, name="E2", meta=meta)


@functools.lru_cache(maxsize=None)
def build_RN() -> QTStructure:
    """R_N = ½(1⊗1 + 1⊗c + c⊗1 − c⊗c + x₁⊗cx₂ + x₁⊗x₂ + cx₁⊗cx₂ − cx₁⊗x₂)."""
    e2 = build_e2()
    half = Q(1, 2)
    terms = {
        (0, 0): half,
        (0, 1): half,
        (1, 0): half,
        (1, 1): -half,
        (2, 5): half,
        (2, 4): half,
        (3, 5): half,
        (3, 4): -half,
    }
    r = zero_vec(64)
    for (i, j), c in terms.items():
        r[i * 8 + j] = c
    return qt_structure(e2, r)


@functools.lru_cache(maxsize=None)
def t_morphism() -> HopfMorphism:
    """The quasitriangular surjection T: D(H₄) → E(2).

    φ(g)⋈1 ↦ c, ε⋈g ↦ c, ε⋈h ↦ x₁, φ(h)⋈1 ↦ cx₂; on the basis f_i⋈e_j
    this is T(f_i⋈1)·T(1⋈e_j).
    """
    double, _ = build_dh4()
    e2 = build_e2()
    alg = e2.alg
    half = Q(1, 2)
    one, c, x1, cx1, x2, cx2 = (alg.basis_vec(i) for i in (0, 1, 2, 3, 4, 5))

    t_dual = [
        [(a + b) * half for a, b in zip(one, c)],     # 1*  = (φ(1)+φ(g))/2 ↦ (1+c)/2
        [(a - b) * half for a, b in zip(one, c)],     # g*  = (φ(1)−φ(g))/2 ↦ (1−c)/2
        [(a + b) * half for a, b in zip(cx2, x2)],    # h*  = (φ(h)+φ(gh))/2 ↦ (cx₂+x₂)/2
        [(a - b) * half for a, b in zip(cx2, x2)],    # gh* = (φ(h)−φ(gh))/2 ↦ (cx₂−x₂)/2
    ]
    t_alg = [one, c, x1, alg.mul_vec(c, x1)]
    cols = []
    for i in range(4):
        for j in range(4):
            cols.append(alg.mul_vec(t_dual[i], t_alg[j]))
    return HopfMorphism(double, e2, Matrix.from_cols(cols), name="T")


def theta(lam, mu) -> HopfMorphism:
    """The Hopf projection θ_{λ,μ}: E(2) → H₄, c ↦ g, x₁ ↦ λh, x₂ ↦ μh."""
    lam, mu = Q(lam), Q(mu)
    e2 = build_e2()
    h4 = build_h4()
    alg = h4.alg
    images = {1: alg.basis_vec(1), 2: [x * lam for x in alg.basis_vec(2)], 4: [x * mu for x in alg.basis_vec(2)]}
    cols = []
    for d in (0, 1):
        for b in (0, 1):
            for a in (0, 1):
                acc = alg.one()
                for gen, e in ((1, a), (2, b), (4, d)):
                    for _ in range(e):
                        acc = alg.mul_vec(acc, images[gen])
                cols.append((_e2_index(a, b, d), acc))
    cols.sort(key=lambda t: t[0])
    return HopfMorphism(e2, h4, Matrix.from_cols([c for _, c in cols]), name=f"theta({lam},{mu})")


# ---------------------------------------------------------------------------
# Module algebras over E(2)
# ---------------------------------------------------------------------------


def e2_action_from_generators(c_mat: Matrix, x1_mat: Matrix, x2_mat: Matrix) -> list[Matrix]:
    """Extend generator operators to all eight monomial basis actions."""
    mats = {1: c_mat, 2: x1_mat, 4: x2_mat}
    action = []
    for d in (0, 1):
        for b in (0, 1):
            for a in (0, 1):
                acc = Matrix.identity(c_mat.rows)
                for gen, e in ((1, a), (2, b), (4, d)):
                    for _ in range(e):
                        acc = acc @ mats[gen]
                action.append((_e2_index(a, b, d), acc))
    action.sort(key=lambda t: t[0])
    return [m for _, m in action]


def build_c_e2(a, t1, t2) -> YDObject:
    """The two-dimensional (E(2), R_N)-algebra: x² = a, c·x = −x,
    x₁·x = t₁, x₂·x = t₂, coaction induced by R_N."""
    a, t1, t2 = Q(a), Q(t1), Q(t2)
    e2 = build_e2()
    alg = StructureAlgebra(
        ["1", "x"],
        [1, 0],
        [[[1, 0], [0, 1]], [[0, 1], [a, 0]]],
        name=f"C({a};{t1},{t2})@E2",
    )
    cm = Matrix.diag([1, -1])
    x1m = Matrix([[0, t1], [0, 0]])
    x2m = Matrix([[0, t2], [0, 0]])
    action = e2_action_from_generators(cm, x1m, x2m)
    return induced_coaction(YDObject(e2, 2, alg, action), build_RN())


def restrict_along(f: HopfMorphism, a: YDObject, r_source: QTStructure | None = None) -> YDObject:
    """Pull a module algebra over f.target back to f.source (action ∘ f).

    Any coaction of ``a`` is dropped. When a source quasitriangular
    structure is supplied the result is the full YD algebra with the
    induced coaction; otherwise a plain module algebra. Module-algebra
    validity is re-checked.
    """
    src = f.source
    action = [a.act_matrix(f.apply(src.alg.basis_vec(i))) for i in range(src.dim)]
    out = YDObject(src, a.dim, a.alg, action)
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


def f0_g0_matrices(a: YDObject, c_index: int | None = None) -> tuple[Matrix, Matrix]:
    """The parity-flip versions of F and G.

    F₀(x#y)(z) = (−1)^{|z||y|} x z y and G₀(x#y)(z) = (−1)^{|x||z|} x z y,
    the maps whose bijectivity says the underlying superalgebra is graded
    central simple. Only the grouplike action (the grading) enters.
    """
    if c_index is None:
        c_index = grouplike_index(a.hopf)
    parity = action_grading(a, c_index)
    alg = a.alg
    d = alg.dim
    f = [[Q(0)] * (d * d) for _ in range(d * d)]
    g = [[Q(0)] * (d * d) for _ in range(d * d)]
    for x in range(d):
        for y in range(d):
            col = x * d + y
            for z in range(d):
                prod = alg.mul_vec(alg.mul_vec(alg.basis_vec(x), alg.basis_vec(z)), alg.basis_vec(y))
                sf = -1 if parity[z] and parity[y] else 1
                sg = -1 if parity[x] and parity[z] else 1
                for p, v in enumerate(prod):
                    if v:
                        f[z * d + p][col] = sf * v
                        g[z * d + p][col] = sg * v
    return Matrix(f), Matrix(g)


def is_graded_central_simple(a) -> bool:
    f0, g0 = f0_g0_matrices(a)
    return mat_det(f0) != 0 and mat_det(g0) != 0


# ---------------------------------------------------------------------------
# The kernel witness of the exact sequence
# ---------------------------------------------------------------------------


@dataclass
class KernelWitness:
    u: Matrix
    w: Matrix
    big_u: Matrix
    big_w: Matrix
    p_module: YDObject        # over D(H₄)
    end_p: YDObject           # over E(2), coaction induced by R_N
    report: CheckReport
    steps: dict = field(default_factory=dict)  # step label -> bool


def _witness_matrices() -> tuple[Matrix, Matrix, Matrix, Matrix]:
    u = Matrix.diag([1, -1])
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
    action = [act_dual[i] @ act_alg[j] for i in range(4) for j in range(4)]
    return YDObject(double, 2, action=action)


def witness_end_p() -> YDObject:
    """End(P) as an (E(2), R_N)-Azumaya algebra: c·f = ufu⁻¹,
    x₁·f = wfu⁻¹ + fuw, (cx₂)·f = Wf − UfU⁻¹W."""
    e2 = build_e2()
    u, w, big_u, big_w = _witness_matrices()
    u_inv = u.inverse()
    big_u_inv = big_u.inverse()
    d = 2
    from .algebra import endomorphism_algebra, operator_to_vec

    alg = endomorphism_algebra(d)

    def op_map(fun) -> Matrix:
        cols = []
        for q in range(d):
            for p in range(d):
                e = Matrix.zero(d, d)
                e.data[p][q] = Q(1)
                cols.append(operator_to_vec(fun(e)))
        return Matrix.from_cols(cols)

    c_mat = op_map(lambda f: u @ f @ u_inv)
    x1_mat = op_map(lambda f: w @ f @ u_inv + f @ u @ w)
    cx2_mat = op_map(lambda f: big_w @ f - big_u @ f @ big_u_inv @ big_w)
    x2_mat = c_mat @ cx2_mat  # x₂ = c·(cx₂)
    action = e2_action_from_generators(c_mat, x1_mat, x2_mat)
    return induced_coaction(YDObject(e2, alg.dim, alg, action), build_RN())


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

    g_on_p = p.act_matrix(dh4_named("g"))
    phig_on_p = p.act_matrix(dh4_named("phi_g"))
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
    for label, e2_gen in (("g", 1), ("h", 2)):
        rep.require(
            end_p.action[e2_gen] == canonical.act_matrix(dh4_named(label)),
            f"End(P) action of {label} disagrees with the canonical one",
        )
    rep.require(
        end_p.action[_e2_index(1, 0, 1)] == canonical.act_matrix(dh4_named("phi_h")),
        "End(P) action of φ(h) disagrees with the canonical one",
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
    steps["vi: g and φ(g) agree on P⊗P"] = pp.act_matrix(dh4_named("g")) == pp.act_matrix(
        dh4_named("phi_g")
    )
    rep.require(steps["vi: g and φ(g) agree on P⊗P"], "(vi) g and φ(g) must agree on P⊗P")
    return KernelWitness(u, w, big_u, big_w, p, end_p, rep, steps)


# ---------------------------------------------------------------------------
# Inner actions and the closure counterexample
# ---------------------------------------------------------------------------


@dataclass
class Thm61Report:
    x1_inner: bool
    x2_inner: bool
    graded_central_simple: bool
    e2_inner: bool
    central_simple: bool
    x1_witness: list | None
    x2_witness: list | None

    @property
    def equivalent(self) -> bool:
        return self.x1_inner == self.x2_inner == self.graded_central_simple

    @property
    def addendum_holds(self) -> bool:
        return self.e2_inner == self.central_simple


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


@dataclass
class NotSubgroupReport:
    t: Fraction
    q: Fraction
    factors_azumaya: tuple[bool, bool]
    factors_gcs: tuple[bool, bool]
    product_azumaya: bool
    product_gcs: bool
    super_central_witness: list[Fraction] | None
    x1_witness_missing: bool
    x2_witness_missing: bool

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


def not_subgroup_demo(t, q) -> NotSubgroupReport:
    """The closure failure: C(1;t,2) and C(1;1,q) are (E(2),R_N)-Azumaya and
    graded central simple, but their product contains the super-central
    odd element X−Y, is not graded central simple, and admits no inner
    witness for either x_i. Requires t ∉ {0,1} and q ≠ 2."""
    t, q = Q(t), Q(q)
    if t in (0, 1) or q == 2:
        raise ValueError("need t ∉ {0,1} and q ≠ 2")
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
    l1, l2 = (Q(x) for x in dim2_params)
    e2 = build_e2()
    cm = Matrix.diag([1, -1])
    x1m = Matrix([[0, l1], [0, 0]])
    x2m = Matrix([[0, l2], [0, 0]])
    action = e2_action_from_generators(cm, x1m, x2m)
    mod = YDObject(e2, 2, action=action)
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
    x = _tensor_vec(vvec, wvec)
    lhs = psi.apply(x)
    t1 = psi0.apply(x)
    xv = v.action[x1_idx].apply(vvec)
    xw = w.action[x2_idx].apply(wvec)
    t2 = psi0.apply(_tensor_vec(xv, xw))
    sign = Q(-1) if wpar == 0 else Q(1)
    return [l - (p + sign * s) for l, p, s in zip(lhs, t1, t2)]


def _parity_of(vecv, parity) -> int:
    pars = {parity[i] for i, c in enumerate(vecv) if c}
    if len(pars) != 1:
        raise ValueError("element is not homogeneous")
    return pars.pop()


def _tensor_vec(x, y) -> list[Fraction]:
    out = zero_vec(len(x) * len(y))
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    out[i * len(y) + j] = a * b
    return out


def fg_decomposition_residuals(a: YDObject, xv, yv, zv) -> tuple[list[Fraction], list[Fraction]]:
    """Residuals of the two decompositions, for homogeneous x, y, z:

        F(x#y)(z) = F₀(x#y)(z) + (−1)^{|z|+1} F₀(x # x₁·y)(x₂·z)
        G(x#y)(z) = G₀(x#y)(z) + (−1)^{|x|+1} G₀(x₂·x # y)(x₁·z)
    """
    e2 = a.hopf
    c_idx, x1_idx, x2_idx = e2.meta["c"], e2.meta["x1"], e2.meta["x2"]
    alg = a.alg
    parity = action_grading(a, c_idx)
    px = _parity_of(xv, parity)
    pz = _parity_of(zv, parity)

    fg = FGContraction(a)

    def fmap(x, y, z):
        sx, sy, sz = sparse_vec(x), sparse_vec(y), sparse_vec(z)
        return dense_vec(fg.f(fg.f_left(sx, sz), fg.images_of(sy)), alg.dim)

    def gmap(x, y, z):
        sx, sy, sz = sparse_vec(x), sparse_vec(y), sparse_vec(z)
        return dense_vec(alg.mul_sparse(fg.g_left(sx, fg.images_of(sz)), sy), alg.dim)

    def f0map(x, y, z):
        zpar = _parity_of(z, parity)
        ypar = _parity_of(y, parity) if not is_zero_vec(y) else 0
        sign = Q(-1) if zpar and ypar else Q(1)
        return [sign * v for v in alg.mul_vec(alg.mul_vec(x, z), y)]

    def g0map(x, y, z):
        xpar = _parity_of(x, parity) if not is_zero_vec(x) else 0
        zpar = _parity_of(z, parity)
        sign = Q(-1) if xpar and zpar else Q(1)
        return [sign * v for v in alg.mul_vec(alg.mul_vec(x, z), y)]

    x1y = a.action[x1_idx].apply(yv)
    x2z = a.action[x2_idx].apply(zv)
    sf = Q(-1) if pz == 0 else Q(1)
    res_f = [
        l - (m + sf * n)
        for l, m, n in zip(
            fmap(xv, yv, zv),
            f0map(xv, yv, zv),
            f0map(xv, x1y, x2z) if not is_zero_vec(x2z) else zero_vec(alg.dim),
        )
    ]
    x2x = a.action[x2_idx].apply(xv)
    x1z = a.action[x1_idx].apply(zv)
    sg = Q(-1) if px == 0 else Q(1)
    res_g = [
        l - (m + sg * n)
        for l, m, n in zip(
            gmap(xv, yv, zv),
            g0map(xv, yv, zv),
            g0map(x2x, yv, x1z) if not (is_zero_vec(x2x) or is_zero_vec(x1z)) else zero_vec(alg.dim),
        )
    ]
    return res_f, res_g
