"""Verification suites: seeded, reproducible machine checks of every
identity, construction and counterexample the package implements.

Each suite draws its random rationals from its own PRNG derived from
(seed, suite id), with numerators and denominators in [−9, 9]\\{0} — small
enough to keep exact arithmetic light, and ≥ 20 distinct sample points per
polynomial identity, far beyond the degrees involved, so a passing sample
cannot be a coincidence. Re-running with the same seed reproduces the
check records byte for byte.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from .algebra import CheckReport
from .e2 import (
    braiding_decomposition_residual,
    build_c_e2,
    build_e2,
    build_e2_module,
    build_RN,
    CLOSURE_EXCLUDED_Q,
    CLOSURE_EXCLUDED_T,
    closure_params,
    fg_decomposition_residuals,
    kernel_witness,
    not_subgroup_demo,
    prop62_instance_check,
    restrict_along,
    t_morphism,
    theorem61_check,
    theta,
    witness_end_p,
)
from .hopf import (
    check_coquasitriangular,
    check_hopf_axioms,
    check_hopf_morphism,
    check_quasitriangular,
    push_qt,
)
from .linalg import format_rational, is_zero_vec, mat_det, sparse_vec, zero_vec
from .sweedler import (
    CFamilyDescriptor,
    aut_algebra,
    aut_conjugate,
    build_C,
    build_dh4,
    build_h4,
    build_h4_dual,
    build_h_alpha,
    build_rt,
    build_rt_form,
    build_sigma,
    c_equivalent,
    c_membership,
    c_opposite,
    c_product,
    check_lazy_cocycle,
    classify_bm0,
    comodule_iso_scale,
    dh4_relations,
    intersection_report,
    module_iso_scale,
    phi_iso,
    phi_transport,
    psi_transport,
    sharp_product_matches_presentation,
    validate_c_iso,
)
from .yd import (
    action_grading,
    check_yd_algebra,
    double_to_yd,
    end_yd,
    fg_maps,
    h_opposite,
    induced_action,
    induced_coaction,
    is_h_azumaya,
    sharp_product,
)

Q = Fraction

REPORT_VERSION = "1"


class CheckRecord:
    def __init__(self, check_id: str, anchor: str, params: dict, status: str, witness: object = None):
        self.check_id, self.anchor, self.params, self.status, self.witness = check_id, anchor, params, status, witness

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class Suite:
    """Collects check records; failures never abort the run, and a suite
    that raises is recorded as one ``error`` check (see ``run_verification``)."""

    def __init__(self, suite_id: str, seed: int, samples: int, options: dict):
        self.suite_id = suite_id
        self.samples = samples
        self.options = options
        digest = hashlib.sha256(f"{seed}:{suite_id}".encode()).digest()
        self.rng = random.Random(int.from_bytes(digest[:8], "big"))
        self.records: list[CheckRecord] = []

    def rat(self, nonzero: bool = False) -> Fraction:
        num = self.rng.randint(-9, 9)
        while nonzero and num == 0:
            num = self.rng.randint(-9, 9)
        return Q(num, self.rng.randint(1, 9))

    def check(self, check_id: str, anchor: str, ok, params: dict | None = None, witness=None):
        if isinstance(ok, CheckReport):
            witness = witness if ok.ok else (ok.failures[:4] if witness is None else witness)
            ok = ok.ok
        self.records.append(
            CheckRecord(
                f"{self.suite_id}.{check_id}",
                anchor,
                {k: _fmt(v) for k, v in (params or {}).items()},
                "pass" if ok else "fail",
                _fmt(witness),
            )
        )


def _fmt(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, CFamilyDescriptor):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# Suite bodies
# ---------------------------------------------------------------------------


def suite_hopf(s: Suite) -> None:
    s.check("h4-axioms", "§1 H₄ presentation", check_hopf_axioms(build_h4()))
    s.check("h4dual-axioms", "§1 self-duality of H₄", check_hopf_axioms(build_h4_dual()))
    s.check("e2-axioms", "§5 E(2) presentation", check_hopf_axioms(build_e2()))
    double, canonical = build_dh4()
    s.check("dh4-axioms", "§1 D(H₄)", check_hopf_axioms(double), {"dim": double.dim})
    for idx, (label, val) in enumerate(dh4_relations(), start=1):
        s.check(
            f"dh4-relation-{idx}",
            "§1 D(H₄) relation list",
            is_zero_vec(val),
            {"relation": label},
        )
    s.check("phi-iso", "§1 isomorphism φ: H₄ → H₄*", check_hopf_morphism(phi_iso()))
    s.check(
        "phi-bijective",
        "§1 isomorphism φ: H₄ → H₄*",
        mat_det(phi_iso().matrix) != 0,
    )
    h4 = build_h4()
    dd = h4.dual.dual
    s.check(
        "double-dual",
        "§1 self-duality of H₄",
        dd.alg.same_product(h4.alg) and dd.same_coproduct(h4) and dd.int_s == h4.int_s,
    )
    s.check(
        "canonical-R",
        "§5 canonical quasitriangular structure of D(H₄)",
        check_quasitriangular(double, canonical),
    )


def suite_qt(s: Suite) -> None:
    phi = phi_iso()
    for k in range(s.samples):
        t = s.rat()
        rt = build_rt(t)
        rep = check_quasitriangular(build_h4(), rt)
        s.check(f"rt-qt-{k}", "§1 triangular structures R_t", rep.ok and rep.data["triangular"], {"t": t})
        form = build_rt_form(t)
        rep = check_coquasitriangular(build_h4(), form)
        s.check(f"rt-coqt-{k}", "§1 cotriangular structures r_t", rep.ok and rep.data["cotriangular"], {"t": t})
        den, pushed = push_qt(phi, rt)
        table = [[pushed.get((u, v), 0) for v in range(4)] for u in range(4)]
        s.check(f"phi-push-{k}", "§1 (φ⊗φ)(R_t) = r_t", (den, table) == form.int_table, {"t": t})


def _random_descriptor(s: Suite, azumaya: bool | None = None) -> CFamilyDescriptor:
    while True:
        d = CFamilyDescriptor(s.rat(), s.rat(), s.rat())
        if azumaya is None or d.is_azumaya == azumaya:
            return d


def suite_lemma21(s: Suite) -> None:
    for k in range(s.samples):
        d = CFamilyDescriptor(s.rat(), s.rat(), s.rat())
        a, t, sp = d.a, d.t, d.s
        c = build_C(d)
        s.check(f"yd-{k}", "Lemma 2.1(1)", check_yd_algebra(c), {"d": d})
        f, g = fg_maps(c)
        det_f, det_g = mat_det(f), mat_det(g)
        expected = (sp * t - 2 * a) ** 2
        s.check(
            f"dets-{k}",
            "Lemma 2.1(8) determinant formulas",
            det_f == -expected and det_g == expected,
            {"d": d},
            {"detF": det_f, "detG": det_g},
        )
        s.check(
            f"azumaya-iff-{k}",
            "Lemma 2.1(8)",
            is_h_azumaya(c) == d.is_azumaya,
            {"d": d},
        )
        opp = h_opposite(c)
        expected_opp = build_C(c_opposite(d))
        s.check(
            f"opposite-{k}",
            "Lemma 2.1(7) H₄-opposite is C(st−a;t,s)",
            check_yd_algebra(opp).ok
            and opp.same_structure(expected_opp)
            and c_opposite(c_opposite(d)) == d,
            {"d": d},
        )
        # (2)-(4): isomorphism criteria. Witnesses are validated structurally
        # (the map x ↦ αy must intertwine the relevant structure); in the
        # pinned-candidate regime (t ≠ 0) a perturbed a-slot must yield None.
        alpha = s.rat(nonzero=True)
        mod_pair = CFamilyDescriptor(alpha * alpha * a, alpha * t, s.rat())
        com_pair = CFamilyDescriptor(alpha * alpha * a, s.rat(), alpha * sp)
        yd_pair = CFamilyDescriptor(alpha * alpha * a, alpha * t, alpha * sp)
        w2 = module_iso_scale(mod_pair, d)
        ok2 = w2 is not None and validate_c_iso(mod_pair, d, w2, coaction=False)
        w3 = comodule_iso_scale(com_pair, d)
        ok3 = w3 is not None and validate_c_iso(com_pair, d, w3, action=False)
        w4 = c_equivalent(yd_pair, d)
        ok4 = w4 is not None and validate_c_iso(yd_pair, d, w4)
        if t:
            broken = CFamilyDescriptor(alpha * alpha * a + 1, alpha * t, alpha * sp)
            ok2 = ok2 and module_iso_scale(broken, d) is None
            ok4 = ok4 and c_equivalent(broken, d) is None
        if sp:
            broken = CFamilyDescriptor(alpha * alpha * a + 1, alpha * t, alpha * sp)
            ok3 = ok3 and comodule_iso_scale(broken, d) is None
        s.check(f"item2-{k}", "Lemma 2.1(2) module algebra isomorphism", ok2, {"d": d, "alpha": alpha})
        s.check(f"item3-{k}", "Lemma 2.1(3) comodule algebra isomorphism", ok3, {"d": d, "alpha": alpha})
        s.check(f"item4-{k}", "Lemma 2.1(4) YD isomorphism", ok4, {"d": d, "alpha": alpha})
        # (5): action induced by r_l iff t = s·l
        l = s.rat()
        induced = induced_action(c, build_rt_form(l))
        s.check(
            f"item5-{k}",
            "Lemma 2.1(5)",
            (induced.int_images == c.int_images) == (t == sp * l),
            {"d": d, "l": l},
        )
        if sp:
            forced = induced_action(c, build_rt_form(t / sp))
            s.check(f"item5-forced-{k}", "Lemma 2.1(5)", forced.int_images == c.int_images, {"d": d, "l": t / sp})
        # (6): coaction induced by R_l iff s = l·t
        induced_co = induced_coaction(c, build_rt(l))
        s.check(
            f"item6-{k}",
            "Lemma 2.1(6)",
            (induced_co.int_rho == c.int_rho) == (sp == l * t),
            {"d": d, "l": l},
        )
        if t:
            forced = induced_coaction(c, build_rt(sp / t))
            s.check(f"item6-forced-{k}", "Lemma 2.1(6)", forced.int_rho == c.int_rho, {"d": d, "l": sp / t})
    degenerate = CFamilyDescriptor(Q(3), Q(2), Q(3))  # 2a = st
    s.check(
        "azumaya-degenerate",
        "Lemma 2.1(8)",
        not is_h_azumaya(build_C(degenerate)),
        {"d": degenerate},
    )


def suite_lemma22(s: Suite) -> None:
    for k in range(s.samples):
        d1 = CFamilyDescriptor(s.rat(), s.rat(), s.rat())
        d2 = CFamilyDescriptor(s.rat(), s.rat(), s.rat())
        pres = c_product(d1, d2)
        ok = sharp_product_matches_presentation(d1, d2, pres)
        s.check(
            f"product-{k}",
            "Lemma 2.2 generalized quaternion presentation",
            ok,
            {"d1": d1, "d2": d2},
            {"XY+YX": pres.anticommutator},
        )


def suite_prop23(s: Suite) -> None:
    for k in range(s.samples):
        a = s.rat(nonzero=True)
        t = s.rat()
        d = CFamilyDescriptor(a, t, 0)
        try:
            inv = classify_bm0(d)
            ok = inv.beta == t * t / (4 * a)
            witness = {"beta": inv.beta, "square_class": inv.square_class}
        except AssertionError as exc:
            ok, witness = False, str(exc)
        s.check(f"beta-{k}", "Prop 2.3 [C(a;t,0)] = (t²(4a)⁻¹, [C(a)])", ok, {"a": a, "t": t}, witness)
    a = s.rat(nonzero=True)
    s.check(
        "pi-star",
        "Prop 2.3 π*([C(a)]) = [C(a;0,0)]",
        classify_bm0(CFamilyDescriptor(a, 0, 0)).beta == 0,
        {"a": a},
    )
    beta = s.rat(nonzero=True)
    d = CFamilyDescriptor(1 / (4 * beta), 1, 0)
    s.check(
        "generator",
        "Prop 2.3 [C((4β)⁻¹;1,0)] = (β, ·)",
        classify_bm0(d).beta == beta,
        {"beta": beta},
    )


def suite_transports(s: Suite) -> None:
    s.check("sigma-cocycle", "§2 lazy cocycles σ_t", check_lazy_cocycle(build_sigma(s.rat())))
    s.check(
        "sigma-zero",
        "§2 lazy cocycles σ_t",
        not any(build_sigma(0).int_table[1][2]),
    )
    for k in range(max(10, s.samples // 2)):
        a = s.rat()
        sp = s.rat()
        try:
            out = psi_transport(CFamilyDescriptor(a, 0, 1), sp)
            ok = out == CFamilyDescriptor(a + sp / 2, sp, 1)
        except AssertionError as exc:
            ok, out = False, str(exc)
        s.check(f"psi-{k}", "Prop 2.5 Ψ_s([C(a;0,1)]) = [C(a+s/2;s,1)]", ok, {"a": a, "s": sp}, out)
        t = s.rat()
        try:
            out = phi_transport(CFamilyDescriptor(a, 1, t))
            ok = out == CFamilyDescriptor(a, t, 1)
        except AssertionError as exc:
            ok, out = False, str(exc)
        s.check(f"phi-{k}", "Prop 2.6 Φ_t([C(a;1,t)]) = [C(a;t,1)]", ok, {"a": a, "t": t}, out)
    for k in range(max(10, s.samples // 2)):
        a = s.rat()
        q = s.rat()
        chained = phi_transport(
            psi_transport(phi_transport(CFamilyDescriptor(a, 1, q)), q, inverse=True),
            inverse=True,
        )
        s.check(
            f"chain-{k}",
            "Cor 3.4 proof: Φ₀⁻¹Ψ_q⁻¹Φ_q maps (a;1,q) to (a−q/2;1,0)",
            chained == CFamilyDescriptor(a - q / 2, 1, 0),
            {"a": a, "q": q},
        )


def suite_aut(s: Suite) -> None:
    for k in range(s.samples):
        d = CFamilyDescriptor(s.rat(), s.rat(), s.rat())
        alpha = s.rat(nonzero=True)
        try:
            out = aut_conjugate(d, alpha)
            ok = out == CFamilyDescriptor(d.a, alpha * d.t, d.s / alpha)
        except AssertionError as exc:
            ok, out = False, str(exc)
        s.check(f"conj-{k}", "Lemma 4.1(1)", ok, {"d": d, "alpha": alpha}, out)
    d = CFamilyDescriptor(s.rat(nonzero=True), s.rat(nonzero=True), s.rat(nonzero=True))
    s.check(
        "kernel-pm1",
        "§4 kernel of Aut(H₄) → BQ is {±1}",
        c_equivalent(aut_conjugate(d, -1), d) == Q(-1),
        {"d": d},
    )
    alpha = s.rat(nonzero=True)
    h_alpha = build_h_alpha(alpha)
    expected = zero_vec(4)
    expected[3] = -(1 + alpha)
    s.check(
        "h-alpha-action",
        "§4 H_α: h·g = −(1+α)gh",
        h_alpha.int_images[1][1][2] == sparse_vec([h_alpha.int_images[0] * x for x in expected]),
        {"alpha": alpha},
    )
    a_alpha = aut_algebra(alpha)
    s.check(
        "a-alpha-yd",
        "§4 A_α = End(H_α) is H₄-Azumaya",
        check_yd_algebra(a_alpha).ok and is_h_azumaya(a_alpha),
        {"alpha": alpha},
    )


def suite_thm33(s: Suite) -> None:
    for k in range(s.samples):
        d = _random_descriptor(s, azumaya=True)
        m = c_membership(d)
        ok_i = (m.in_i == d.s / d.t) if d.t else (m.in_i == ("all" if d.s == 0 else None))
        ok_iota = (m.in_iota == d.t / d.s) if d.s else (m.in_iota == ("all" if d.t == 0 else None))
        consistency = True
        if d.t and d.s:
            consistency = m.in_i * m.in_iota == 1
        s.check(
            f"membership-{k}",
            "Thm 3.3 / Prop 3.1",
            ok_i and ok_iota and consistency,
            {"d": d},
            {"in_i": m.in_i, "in_iota": m.in_iota},
        )
    t = s.rat(nonzero=True)
    verdicts = intersection_report(t, 1 / t)
    s.check(
        "intersect-reciprocal",
        "Thm 3.5(1)",
        verdicts[0].nontrivial and verdicts[0].witness is not None,
        {"t": t, "s": 1 / t},
    )
    t2 = s.rat()
    s2 = t2 + 1
    verdicts = intersection_report(t2, s2)
    s.check(
        "intersect-distinct",
        "Thm 3.5",
        (not verdicts[0].nontrivial or t2 * s2 == 1) and not verdicts[1].nontrivial and not verdicts[2].nontrivial,
        {"t": t2, "s": s2},
    )


def suite_thm52(s: Suite) -> None:
    kw = kernel_witness()
    for label, ok in kw.steps.items():
        s.check(f"step-{label.split(':')[0]}", "Thm 5.2 exact sequence", ok, {"step": label})
    s.check("bundle", "Thm 5.2 exact sequence", kw.report, witness=kw.report.data.get("strong_branches"))
    u, w, big_u, big_w = kw.u, kw.w, kw.big_u, kw.big_w
    ident = u @ u
    s.check(
        "matrix-identities",
        "Thm 5.2 witness matrices",
        ident == u.inverse() @ u
        and (big_w @ big_w).is_zero()
        and (u @ big_w + big_w @ u).is_zero(),
    )
    value = big_w @ w - w @ big_w
    s.check(
        "relation-value",
        "§1 D(H₄) relation list on P: [φ(h), h] acts as φ(g) − g",
        value == big_u - u and value == -2 * u,
    )


def suite_eq51(s: Suite) -> None:
    canonical = build_dh4()[1]
    t = t_morphism()
    s.check("t-hopf", "§5 T: D(H₄) → E(2)", check_hopf_morphism(t))
    rn = build_RN()
    s.check("push", "Eq (5.1) (T⊗T)(ℛ) = R_N", push_qt(t, canonical) == rn.int_pairs)
    e2 = build_e2()
    rep = check_quasitriangular(e2, rn)
    s.check("rn-qt", "Eq (5.1) R_N is quasitriangular", rep.ok)
    coeff = Q(rn.int_pairs[1].get((2, 5), 0), rn.int_pairs[0])
    s.check("rn-coefficient", "Eq (5.1) coefficient of x₁⊗cx₂", coeff == Q(1, 2), witness=coeff)
    for k in range(max(10, s.samples // 2)):
        lam, mu = s.rat(), s.rat()
        th = theta(lam, mu)
        s.check(f"theta-hopf-{k}", "Prop 5.3 θ_{λ,μ}", check_hopf_morphism(th), {"lam": lam, "mu": mu})
        ok = push_qt(th, rn) == build_rt(lam * mu).int_pairs
        s.check(f"theta-push-{k}", "Prop 5.3 (θ⊗θ)(R_N) = R_{λμ}", ok, {"lam": lam, "mu": mu})
    for k in range(5):
        lam, mu, a = s.rat(nonzero=True), s.rat(), s.rat(nonzero=True)
        c_h4 = build_C(CFamilyDescriptor(a, 1, lam * mu))
        pulled = restrict_along(theta(lam, mu), c_h4, build_RN())
        back = double_to_yd(restrict_along(t_morphism(), pulled), build_h4())
        s.check(
            f"pullback-{k}",
            "Prop 5.3(3) T*Θ_{λ,μ}([C(a;1,λμ)]) = [C(a;λ,μ)]",
            back.same_structure(build_C(CFamilyDescriptor(a, lam, mu))),
            {"a": a, "lam": lam, "mu": mu},
        )


def _homog_vec(s: Suite, dim: int, parity, want: int):
    idxs = [i for i in range(dim) if parity[i] == want]
    v = zero_vec(dim)
    for i in idxs:
        v[i] = s.rat()
    if is_zero_vec(v):
        v[idxs[0]] = Q(1)
    return v


def _redraw_excluded(s: Suite, x: Fraction, excluded: tuple) -> Fraction:
    """x, or the first of further seeded draws that is not an excluded value."""
    while x in excluded:
        x = s.rat()
    return x


def suite_appendix(s: Suite) -> None:
    e2 = build_e2()
    c_idx = e2.meta["c"]
    n_pairs = max(50, s.samples)
    fails = 0
    for k in range(n_pairs):
        v = build_e2_module((s.rat(), s.rat()))
        w = build_c_e2(s.rat(True), s.rat(), s.rat())
        pv = action_grading(v, c_idx)
        pw = action_grading(w, c_idx)
        vv = _homog_vec(s, 2, pv, s.rng.randint(0, 1))
        wv = _homog_vec(s, 2, pw, s.rng.randint(0, 1))
        if not is_zero_vec(braiding_decomposition_residual(v, w, vv, wv)):
            fails += 1
    s.check("eq6.1", "Eq (6.1) braiding decomposition", fails == 0, {"pairs": n_pairs}, {"failures": fails})

    fails = 0
    for k in range(n_pairs):
        if k % 3 == 2:
            a = sharp_product(
                build_c_e2(s.rat(True), s.rat(), s.rat()),
                build_c_e2(s.rat(True), s.rat(), s.rat()),
            )
        else:
            a = build_c_e2(s.rat(True), s.rat(), s.rat())
        parity = action_grading(a, c_idx)
        xv = _homog_vec(s, a.dim, parity, s.rng.randint(0, 1))
        yv = _homog_vec(s, a.dim, parity, s.rng.randint(0, 1))
        zv = _homog_vec(s, a.dim, parity, s.rng.randint(0, 1))
        rf, rg = fg_decomposition_residuals(a, xv, yv, zv)
        if not (is_zero_vec(rf) and is_zero_vec(rg)):
            fails += 1
    s.check(
        "eq6.2-6.3",
        "Eqs (6.2),(6.3) F/G decompositions",
        fails == 0,
        {"triples": n_pairs},
        {"failures": fails},
    )

    corpus = []
    for k in range(4):
        a, t1, t2 = s.rat(True), s.rat(), s.rat()
        while 2 * a == t1 * t2:  # stay inside the Azumaya locus
            a = s.rat(True)
        corpus.append((f"2dim-{k}", build_c_e2(a, t1, t2)))
    corpus.append(("end-p", witness_end_p()))
    endq = end_yd(build_e2_module((1, 0)), "plain")
    corpus.append(("end-q", induced_coaction(endq, build_RN())))
    for k in range(4):
        t, q = s.rat(), s.rat()
        t = _redraw_excluded(s, t, CLOSURE_EXCLUDED_T)
        q = _redraw_excluded(s, q, CLOSURE_EXCLUDED_Q)
        corpus.append((f"product-{k}", sharp_product(build_c_e2(1, t, 2), build_c_e2(1, 1, q))))
    mixed = set()
    for label, inst in corpus:
        if not is_h_azumaya(inst):
            s.check(f"thm6.1-{label}", "Thm 6.1", False, {"instance": label}, "not Azumaya")
            continue
        rep = theorem61_check(inst)
        mixed.add(rep.graded_central_simple)
        s.check(
            f"thm6.1-{label}",
            "Thm 6.1 inner ⇔ graded central simple",
            rep.equivalent and rep.addendum_holds,
            {"instance": label},
            {
                "x1_inner": rep.x1_inner,
                "x2_inner": rep.x2_inner,
                "gcs": rep.graded_central_simple,
                "central_simple": rep.central_simple,
                "e2_inner": rep.e2_inner,
            },
        )
    s.check("thm6.1-corpus-mixed", "Thm 6.1", mixed == {True, False}, {"instances": len(corpus)})

    for k in range(5):
        t = _redraw_excluded(s, s.rat(), CLOSURE_EXCLUDED_T)
        q = _redraw_excluded(s, s.rat(), CLOSURE_EXCLUDED_Q)
        ns = not_subgroup_demo(t, q)
        s.check(
            f"thm6.3-{k}",
            "Thm 6.3 graded central simple classes are not a subgroup",
            ns.closure_fails,
            {"t": t, "q": q},
            {"super_central": ns.super_central_witness is not None},
        )

    a = build_c_e2(1, 1, 1)
    qmod = build_e2_module((1, s.rat()))
    res = prop62_instance_check(a, qmod)
    s.check("prop6.2-inner", "Prop 6.2", res["agree"] and res["x1"][0], witness=res)
    t = _redraw_excluded(s, s.rat(), CLOSURE_EXCLUDED_T)
    q = _redraw_excluded(s, s.rat(), CLOSURE_EXCLUDED_Q)
    prod = sharp_product(build_c_e2(1, t, 2), build_c_e2(1, 1, q))
    res = prop62_instance_check(prod, qmod)
    s.check("prop6.2-noninner", "Prop 6.2", res["agree"] and not res["x1"][0], witness=res)


def thm63_params(options: dict) -> tuple[Q, Q]:
    """The (t, q) of the thm6.3 suite: the options' values, (2, 3) where
    absent; ``ValueError`` from ``closure_params`` on excluded values."""
    t, q = options.get("t"), options.get("q")
    return closure_params(Q(2) if t is None else t, Q(3) if q is None else q)


def suite_thm63(s: Suite) -> None:
    t, q = thm63_params(s.options)
    ns = not_subgroup_demo(t, q)
    s.check(
        "closure-fails",
        "Thm 6.3",
        ns.closure_fails,
        {"t": t, "q": q},
        {
            "factors_azumaya": list(ns.factors_azumaya),
            "factors_gcs": list(ns.factors_gcs),
            "product_azumaya": ns.product_azumaya,
            "product_gcs": ns.product_gcs,
            "x1_inner_witness_missing": ns.x1_witness_missing,
            "x2_inner_witness_missing": ns.x2_witness_missing,
        },
    )
    s.check(
        "super-central",
        "Thm 6.3 proof: X−Y lies in the graded center",
        ns.super_central_witness is not None,
        {"t": t, "q": q},
    )


SUITES = {
    "hopf": suite_hopf,
    "qt": suite_qt,
    "lemma2.1": suite_lemma21,
    "lemma2.2": suite_lemma22,
    "prop2.3": suite_prop23,
    "transports": suite_transports,
    "aut": suite_aut,
    "thm3.3": suite_thm33,
    "thm5.2": suite_thm52,
    "eq5.1": suite_eq51,
    "appendix": suite_appendix,
    "thm6.3": suite_thm63,
}


def selected_suites(suites) -> list[str]:
    """The suite ids to run, in order: every suite for "all".

    ``KeyError`` whose single argument is the message, on an unknown id."""
    wanted = list(SUITES) if "all" in suites else list(suites)
    unknown = [x for x in wanted if x not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite(s): {unknown}; known: {sorted(SUITES)}")
    return wanted


def run_verification(suites=("all",), seed: int = 0, samples: int = 20, options: dict | None = None) -> dict:
    """Run the selected suites and assemble the machine-readable report."""
    options = options or {}
    wanted = selected_suites(suites)
    records: list[CheckRecord] = []
    per_suite = {}
    for suite_id in wanted:
        s = Suite(suite_id, seed, samples, options)
        try:
            SUITES[suite_id](s)
        except Exception as exc:
            s.records.append(
                CheckRecord(
                    f"{suite_id}.suite-error",
                    "the suite raised before finishing",
                    {},
                    "error",
                    {"type": type(exc).__name__, "message": str(exc)},
                )
            )
        records.extend(s.records)
        per_suite[suite_id] = {
            "pass": sum(1 for r in s.records if r.passed),
            "fail": sum(1 for r in s.records if not r.passed),
        }
    n_pass = sum(1 for r in records if r.passed)
    return {
        "version": REPORT_VERSION,
        "seed": seed,
        "samples": samples,
        "suites": per_suite,
        "checks": [
            {"check_id": r.check_id, "anchor": r.anchor, "params": r.params, "status": r.status, "witness": r.witness}
            for r in records
        ],
        "summary": {"pass": n_pass, "fail": len(records) - n_pass, "total": len(records)},
        "all_pass": bool(records) and n_pass == len(records),
    }
