"""Command-line front end.

Commands:
    verify          run verification suites, write a JSON report
    classify        Azumaya status / canonical form / subgroup membership
                    / additive invariant of a descriptor triple a t s
    product         the quaternion presentation of C(a;t,s) # C(a';t';s')
    conjugate       the Aut-conjugated descriptor (a; αt, s/α)
    transport       Ψ_s and Φ transports on generator-shaped descriptors
    intersect       subgroup intersection verdicts for parameters t, s
    kernel-witness  the exactness witness End(P) and its six checks
    counterexample  the closure failure for parameters t, q
    theorem61       the inner-action/graded-central-simplicity equivalence
    define          load and validate a JSON definition file

Exit codes: 0 all checks passed, 1 some mathematical check failed,
2 malformed input or usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .defio import SchemaError, builtin_hopf, validate_definition
from .e2 import build_c_e2, generator_error, kernel_witness, not_subgroup_demo, theorem61_check
from .linalg import format_rational, parse_rational
from .sweedler import (
    CFamilyDescriptor,
    TransportShapeError,
    aut_conjugate,
    c_membership,
    c_product,
    classify_bm0,
    intersection_report,
    phi_transport,
    psi_transport,
    sharp_product_matches_presentation,
)
from .verify import run_verification, selected_suites, thm63_params
from .yd import is_h_azumaya

USAGE_ERROR = 2
CHECK_FAILED = 1
# a bound on ``verify --samples``: the run time grows linearly in it
MAX_SAMPLES = 10_000


def _rat(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """Reads a word that starts like a negative number ("-7/3", "-1e3") as a
    value, for ``_rat`` to parse or refuse: argparse's own pattern knows only
    -5 and -.5 and took the rest for options. Subparsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hopfbrauer",
        description="Exact verification engine for braided Brauer-group constructions "
        "over Sweedler's Hopf algebra H4 and Nichols' E(2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", action="append", default=None, help="suite id (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--json", dest="json_path", metavar="PATH", help="write the JSON report here")
    p.add_argument("--t", type=_rat, default=None, help="parameter t for the thm6.3 suite")
    p.add_argument("--q", type=_rat, default=None, help="parameter q for the thm6.3 suite")

    p = sub.add_parser("classify", help="classify the descriptor C(a;t,s)")
    p.add_argument("a", type=_rat)
    p.add_argument("t", type=_rat)
    p.add_argument("s", type=_rat)
    p.add_argument("--json", dest="json_path", metavar="PATH")

    p = sub.add_parser("product", help="quaternion presentation of C(a;t,s) # C(a2;t2,s2)")
    for name in ("a", "t", "s", "a2", "t2", "s2"):
        p.add_argument(name, type=_rat)
    p.add_argument("--json", dest="json_path", metavar="PATH")

    p = sub.add_parser("conjugate", help="Aut(H4)-conjugation of a descriptor")
    for name in ("a", "t", "s", "alpha"):
        p.add_argument(name, type=_rat)

    p = sub.add_parser("transport", help="Ψ/Φ transports on generator shapes")
    p.add_argument("kind", choices=["psi", "phi"])
    p.add_argument("a", type=_rat)
    p.add_argument("t", type=_rat)
    p.add_argument("s", type=_rat)
    p.add_argument("--param", type=_rat, default=None, help="the s-parameter for psi")
    p.add_argument("--inverse", action="store_true")

    p = sub.add_parser("intersect", help="intersection of Im(i_t) and Im(iota_s)")
    p.add_argument("t", type=_rat)
    p.add_argument("s", type=_rat)

    sub.add_parser("kernel-witness", help="verify the exactness witness End(P)")

    p = sub.add_parser("counterexample", help="closure failure for parameters t, q")
    p.add_argument("t", type=_rat)
    p.add_argument("q", type=_rat)

    p = sub.add_parser("theorem61", help="inner-action equivalences for an algebra")
    p.add_argument("file", nargs="?", default=None, help="YD definition file over E2")
    p.add_argument("--c", nargs=3, type=_rat, metavar=("A", "T1", "T2"), default=None,
                   help="use the builtin two-dimensional algebra instead of a file")

    p = sub.add_parser("define", help="load and validate a definition file")
    p.add_argument("file", help="JSON definition file, or a builtin name (H4, H4dual, E2, DH4)")
    return parser


def _emit(payload: dict, json_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_verify(args) -> int:
    if args.samples < 1:
        print(f"error: --samples must be at least 1, got {args.samples}", file=sys.stderr)
        return USAGE_ERROR
    if args.samples > MAX_SAMPLES:
        print(f"error: --samples must be at most {MAX_SAMPLES}, got {args.samples}", file=sys.stderr)
        return USAGE_ERROR
    options = {}
    if args.t is not None:
        options["t"] = args.t
    if args.q is not None:
        options["q"] = args.q
    thm63_params(options)  # excluded --t/--q are bad input (exit 2), not a failed suite
    try:
        suites = selected_suites(args.suite or ("all",))
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return USAGE_ERROR
    report = run_verification(suites, args.seed, args.samples, options)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    for rec in report["checks"]:
        if rec["status"] == "fail":
            print(f"FAIL {rec['check_id']} [{rec['anchor']}] params={rec['params']}")
        elif rec["status"] == "error":
            print(f"ERROR {rec['check_id']}: {rec['witness']['type']}: {rec['witness']['message']}")
    s = report["summary"]
    print(f"{s['pass']}/{s['total']} checks passed (seed={report['seed']}, samples={report['samples']})")
    return 0 if report["all_pass"] else CHECK_FAILED


def cmd_classify(args) -> int:
    d = CFamilyDescriptor(args.a, args.t, args.s)
    payload: dict = {
        "descriptor": repr(d),
        "azumaya": d.is_azumaya,
        "canonical": repr(d.canonical()),
    }
    if not d.is_azumaya:
        payload["note"] = "not Azumaya (2a = st): no class in the Brauer group"
        _emit(payload, args.json_path)
        return 0
    m = c_membership(d)
    payload["membership"] = {
        "i": "all" if m.in_i == "all" else (format_rational(m.in_i) if m.in_i is not None else None),
        "iota": "all" if m.in_iota == "all" else (format_rational(m.in_iota) if m.in_iota is not None else None),
    }
    if d.s == 0 and d.a != 0:
        inv = classify_bm0(d)
        payload["bm0"] = {
            "beta": format_rational(inv.beta),
            "square_class": inv.square_class,
        }
    _emit(payload, args.json_path)
    return 0


def cmd_product(args) -> int:
    d1 = CFamilyDescriptor(args.a, args.t, args.s)
    d2 = CFamilyDescriptor(args.a2, args.t2, args.s2)
    pres = c_product(d1, d2)
    if not sharp_product_matches_presentation(d1, d2, pres):
        print("error: presentation does not match the built # product", file=sys.stderr)
        return CHECK_FAILED
    from .defio import yd_to_json
    from .sweedler import quaternion_yd_algebra

    payload = {
        "factors": [repr(d1), repr(d2)],
        "relations": {
            "X^2": format_rational(pres.x_sq),
            "Y^2": format_rational(pres.y_sq),
            "XY+YX": format_rational(pres.anticommutator),
        },
        "action": {"h.X": format_rational(pres.h_dot_x), "h.Y": format_rational(pres.h_dot_y)},
        "coaction": {
            "rho(X)": f"X⊗g + {format_rational(pres.rho_x_s)}⊗h",
            "rho(Y)": f"Y⊗g + {format_rational(pres.rho_y_s)}⊗h",
        },
        "structure": yd_to_json(quaternion_yd_algebra(pres), hopf_name="H4"),
    }
    _emit(payload, args.json_path)
    return 0


def cmd_conjugate(args) -> int:
    try:
        out = aut_conjugate(CFamilyDescriptor(args.a, args.t, args.s), args.alpha)
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR if isinstance(exc, ValueError) else CHECK_FAILED
    print(repr(out))
    return 0


def cmd_transport(args) -> int:
    d = CFamilyDescriptor(args.a, args.t, args.s)
    try:
        if args.kind == "psi":
            if args.param is None:
                print("error: psi transport needs --param", file=sys.stderr)
                return USAGE_ERROR
            out = psi_transport(d, args.param, inverse=args.inverse)
        else:
            out = phi_transport(d, inverse=args.inverse)
    except TransportShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except AssertionError as exc:
        print(f"error: structural validation failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    print(repr(out))
    return 0


def cmd_intersect(args) -> int:
    verdicts = intersection_report(args.t, args.s)
    for v in verdicts:
        witness = f" witness {v.witness!r}" if v.witness is not None else ""
        print(f"{v.kind}: {'nontrivial' if v.nontrivial else 'BW(k) only'} — {v.note}{witness}")
    return 0


def cmd_kernel_witness(_args) -> int:
    kw = kernel_witness()
    for label, ok in kw.steps.items():
        print(f"{'PASS' if ok else 'FAIL'} ({label})")
    for line in kw.report.data.get("strong_branches", []):
        print(f"  strongly-inner analysis: {line}")
    if not kw.report.ok:
        for f in kw.report.failures[:10]:
            print("FAIL detail:", f)
        return CHECK_FAILED
    return 0


def cmd_counterexample(args) -> int:
    try:
        ns = not_subgroup_demo(args.t, args.q)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"factors Azumaya: {ns.factors_azumaya}, graded central simple: {ns.factors_gcs}")
    print(f"product Azumaya: {ns.product_azumaya}, graded central simple: {ns.product_gcs}")
    print(f"super-central odd element X−Y found: {ns.super_central_witness is not None}")
    print(f"x1 inner witness missing: {ns.x1_witness_missing}, x2: {ns.x2_witness_missing}")
    if ns.closure_fails:
        print("verdict: closure fails — the class of the product has no graded "
              "central simple representative, so these classes are not a subgroup")
        return 0
    print("verdict: chain incomplete")
    return CHECK_FAILED


def cmd_theorem61(args) -> int:
    if args.c is not None:
        a = build_c_e2(*args.c)
    elif args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                obj = json.load(fh)
            kind, loaded, report = validate_definition(obj)
        except (OSError, json.JSONDecodeError, SchemaError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        # theorem61_check reads the generators c, x1 and x2 from the meta
        missing = [key for key in ("c", "x1", "x2") if kind == "yd" and loaded.hopf.meta.get(key) is None]
        if kind != "yd" or missing:
            where = f": the Hopf algebra's meta has no {missing[0]!r}" if missing else ""
            print(f"error: theorem61 needs a YD definition over E2{where}", file=sys.stderr)
            return USAGE_ERROR
        if not report.ok:
            print("error: definition fails its axioms:", *report.failures[:5], sep="\n  ", file=sys.stderr)
            return USAGE_ERROR
        bad = generator_error(loaded.hopf)
        if bad:
            print(f"error: theorem61 needs the generators of E2: {bad}", file=sys.stderr)
            return USAGE_ERROR
        a = loaded
    else:
        print("error: provide a file or --c A T1 T2", file=sys.stderr)
        return USAGE_ERROR
    if not is_h_azumaya(a):
        print("error: algebra is not (E(2),R_N)-Azumaya; the equivalence does not apply", file=sys.stderr)
        return USAGE_ERROR
    rep = theorem61_check(a)
    print(f"x1-action inner: {rep.x1_inner}")
    print(f"x2-action inner: {rep.x2_inner}")
    print(f"graded central simple: {rep.graded_central_simple}")
    print(f"three-way equivalence holds: {rep.equivalent}")
    print(f"E(2)-action inner: {rep.e2_inner}; central simple: {rep.central_simple}; "
          f"addendum holds: {rep.addendum_holds}")
    return 0 if rep.equivalent and rep.addendum_holds else CHECK_FAILED


def cmd_define(args) -> int:
    name = args.file
    if name in ("H4", "H4dual", "E2", "DH4"):
        h = builtin_hopf(name)
        print(f"builtin Hopf algebra {name}: dim {h.dim}, basis {h.alg.basis}")
        return 0
    try:
        with open(name, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {name}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        kind, loaded, report = validate_definition(obj)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    label = getattr(getattr(loaded, "alg", loaded), "name", "") or "unnamed"
    if report.ok:
        print(f"valid {kind} definition ({label}, dim {loaded.dim if hasattr(loaded, 'dim') else loaded.alg.dim})")
        return 0
    print(f"invalid {kind} definition ({label}):")
    for f in report.failures[:20]:
        print(f"  {f}")
    return CHECK_FAILED


HANDLERS = {
    "verify": cmd_verify,
    "classify": cmd_classify,
    "product": cmd_product,
    "conjugate": cmd_conjugate,
    "transport": cmd_transport,
    "intersect": cmd_intersect,
    "kernel-witness": cmd_kernel_witness,
    "counterexample": cmd_counterexample,
    "theorem61": cmd_theorem61,
    "define": cmd_define,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
