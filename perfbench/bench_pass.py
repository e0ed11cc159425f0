"""One timed pass of one workload, in a fresh interpreter.

    python3 perfbench/bench_pass.py --workload verify_all --seed 7 [--trace 1]

Set-up (importing hopfbrauer, building its lru-cached builtins and making
the workload's inputs from the seed) is timed separately from the pass, and
happens in every process, so no cache carries over from one pass to the
next. A fixed calibration kernel runs before set-up, after set-up and after
the pass, so run.py can express every time in reference seconds. The last
stdout line is a JSON object with the times, calibrations, peak memory,
operation tally and an output digest; a traced pass adds per-layer numbers and
appends its spans to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import COUNTERS, TIMED, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SAMPLES = 20  # the ROADMAP's `verify --suite all --seed 7 --samples 20` contract
clock = time.perf_counter


def calibrate(reps: int = 8, n: int = 24) -> float:
    """Seconds this host takes for a fixed exact-arithmetic kernel: Gaussian
    elimination over Fractions on a fixed 24×24 matrix, written here with the
    standard library only, so no change to hopfbrauer can change it."""
    rng = random.Random(20260101)
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    start = clock()
    for _ in range(reps):
        a = [row[:] for row in m]
        for k in range(n):
            p = next(i for i in range(k, n) if a[i][k])
            a[k], a[p] = a[p], a[k]
            inv = 1 / a[k][k]
            for i in range(k + 1, n):
                f = a[i][k] * inv
                if f:
                    ri, rk = a[i], a[k]
                    for j in range(k, n):
                        ri[j] -= f * rk[j]
    return clock() - start


class Meter:
    """Wall time of each named case of a pass; a traced pass also records
    each case as a span."""

    def __init__(self, span=None):
        self.span = span or (lambda name: contextlib.nullcontext())
        self.cases: dict[str, float] = {}

    @contextlib.contextmanager
    def case(self, name: str):
        start = clock()
        try:
            with self.span(name):
                yield
        finally:
            self.cases[name] = clock() - start


class Tally:
    """Attempted and failed operations. An operation fails when it gives a
    wrong verdict, a failing check record or an exception."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, got, want=True) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{name}: got {got!r}, expected {want!r}")

    def error(self, name: str, exc: Exception) -> None:
        self.attempted += 1
        self.failures.append(f"{name}: {type(exc).__name__}: {exc}")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_checks_sha256(checks: list[dict]) -> str:
    """Digest of a report's ``checks`` array in canonical JSON form."""
    return _sha256(json.dumps(checks, sort_keys=True, separators=(",", ":"), ensure_ascii=False))


def import_package():
    """Import hopfbrauer from this checkout's ``src`` and build the builtins
    every CLI run builds (they are lru-cached in the package)."""
    if not (SRC / "hopfbrauer" / "__init__.py").is_file():
        raise SystemExit(f"bench_pass: no hopfbrauer package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hopfbrauer
    from hopfbrauer import e2, sweedler

    if Path(hopfbrauer.__file__).resolve().parent != SRC / "hopfbrauer":
        raise SystemExit(f"bench_pass: imported hopfbrauer from {hopfbrauer.__file__}, not {SRC}")
    for build in (sweedler.build_h4, sweedler.build_h4_dual, sweedler.phi_iso, sweedler.build_dh4,
                  e2.build_e2, e2.build_RN, e2.t_morphism):
        build()


# ---------------------------------------------------------------------------
# verify_all: the ROADMAP's end-to-end contract, one suite at a time
# ---------------------------------------------------------------------------


def verify_inputs(seed: int) -> dict:
    return {"seed": seed}


def verify_all(inputs: dict, tally: Tally, meter: Meter) -> dict:
    from hopfbrauer.verify import SUITES, run_verification

    checks: list[dict] = []
    for suite_id in SUITES:
        try:
            with meter.case(f"verify.suite.{suite_id}"):
                report = run_verification((suite_id,), inputs["seed"], SAMPLES)
        except Exception as exc:
            tally.error(f"suite {suite_id}", exc)
            continue
        for record in report["checks"]:
            tally.expect(record["check_id"], record["status"], "pass")
        checks.extend(report["checks"])
    tally.expect("verify: at least one record", len(checks) > 0)
    digest = canonical_checks_sha256(checks)
    slowest = max((name for name in meter.cases if name.startswith("verify.suite.")),
                  key=meter.cases.get)
    return {"largest_case": slowest, "digest": digest,
            "info": {"records": len(checks), "checks_sha256": digest}}


# ---------------------------------------------------------------------------
# azumaya_ladder: # towers of C(a;t,s) and A_α, yd builders plus elimination
# ---------------------------------------------------------------------------


def ladder_inputs(seed: int) -> dict:
    """Two towers of C(a;t,s) descriptors and an Aut(H₄) parameter α.

    Rationals are drawn like ``verify.Suite.rat(nonzero=True)`` from an RNG
    keyed on (seed, workload), so every rung has the same sparsity pattern.
    """
    from hopfbrauer.sweedler import CFamilyDescriptor

    digest = hashlib.sha256(f"{seed}:azumaya_ladder".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))

    def rat():
        num = 0
        while num == 0:
            num = rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 9))

    def azumaya():
        while True:
            d = CFamilyDescriptor(rat(), rat(), rat())
            if d.is_azumaya:
                return d

    t, s = rat(), rat()
    singular = CFamilyDescriptor(s * t / 2, t, s)
    return {
        "azumaya": [azumaya() for _ in range(4)],     # d = 2, 4, 8, 16
        "singular": [singular, azumaya(), azumaya()],  # d = 2, 4, 8
        "alpha": rat(),
    }


def check_rung(tally: Tally, meter: Meter, label: str, rung, expect_azumaya: bool, factor=None) -> str:
    """Run the per-rung operations, each a case of ``meter`` named
    ``ladder.<label>.<operation>``; return a digest line.

    ``factor`` is the descriptor of a d = 2 rung, whose determinants
    Lemma 2.1(8) gives in closed form.
    """
    from hopfbrauer.algebra import check_algebra_axioms, is_central_simple
    from hopfbrauer.linalg import mat_det
    from hopfbrauer.yd import check_yd_algebra, fg_maps, h_opposite

    with meter.case(f"ladder.{label}.check_yd_algebra"):
        ok = check_yd_algebra(rung).ok
    tally.expect(f"{label} check_yd_algebra", ok)
    with meter.case(f"ladder.{label}.h_opposite"):
        ok = check_yd_algebra(h_opposite(rung)).ok
    tally.expect(f"{label} h_opposite check_yd_algebra", ok)
    with meter.case(f"ladder.{label}.check_algebra_axioms"):
        ok = check_algebra_axioms(rung.alg).ok
    tally.expect(f"{label} check_algebra_axioms", ok)
    with meter.case(f"ladder.{label}.verdict"):
        f, g = fg_maps(rung)
        det_f, det_g = mat_det(f), mat_det(g)
    tally.expect(f"{label} H-Azumaya", det_f != 0 and det_g != 0, expect_azumaya)
    if factor is not None:
        e = (factor.s * factor.t - 2 * factor.a) ** 2
        tally.expect(f"{label} Lemma 2.1(8) (det F, det G)", (det_f, det_g), (-e, e))
    central_simple = None
    if rung.dim <= 8:
        with meter.case(f"ladder.{label}.is_central_simple"):
            central_simple = is_central_simple(rung.alg)
    return f"{label} {det_f} {det_g} {central_simple}"


def azumaya_ladder(inputs: dict, tally: Tally, meter: Meter) -> dict:
    from hopfbrauer.sweedler import aut_algebra, build_C
    from hopfbrauer.yd import sharp_product

    lines: list[str] = []
    for tower, expect in (("azumaya", True), ("singular", False)):
        rung = None
        try:
            for factor in inputs[tower]:
                dim = 2 if rung is None else rung.dim * 2
                label = f"{tower}.d{dim}"
                with meter.case(f"ladder.{label}.build"):
                    c = build_C(factor)
                    rung = c if rung is None else sharp_product(rung, c)
                lines.append(check_rung(tally, meter, label, rung, expect, factor if dim == 2 else None))
        except Exception as exc:
            tally.error(f"{tower} tower", exc)
    try:
        with meter.case("ladder.a_alpha.d16.build"):
            a_alpha = aut_algebra(inputs["alpha"])
        lines.append(check_rung(tally, meter, "a_alpha.d16", a_alpha, True))
    except Exception as exc:
        tally.error("A_alpha", exc)
    return {"largest_case": "ladder.azumaya.d16.verdict", "digest": _sha256("\n".join(lines)),
            "info": {"rungs": len(lines)}}


# ---------------------------------------------------------------------------
# drinfeld_double: hopf building and sparse RREF, no yd and no determinant
# ---------------------------------------------------------------------------


def double_inputs(seed: int) -> dict:
    return {}  # the inputs are the builtins H₄ and E(2); the seed changes nothing


def drinfeld_double_pass(inputs: dict, tally: Tally, meter: Meter) -> dict:
    from hopfbrauer.e2 import build_e2
    from hopfbrauer.hopf import check_hopf_axioms, check_quasitriangular, drinfeld_double
    from hopfbrauer.sweedler import build_h4

    verdicts: list[str] = []
    try:
        with meter.case("double.D(H4)"):
            d4, r4 = drinfeld_double(build_h4())
            reports = [("D(H4) check_hopf_axioms", check_hopf_axioms(d4)),
                       ("D(H4) check_quasitriangular", check_quasitriangular(d4, r4))]
        tally.expect("D(H4) dim", d4.dim, 16)
        with meter.case("double.D(E2)"):
            d8, r8 = drinfeld_double(build_e2())
        tally.expect("D(E2) dim", d8.dim, 64)
        with meter.case("double.D(E2).check_quasitriangular"):
            reports.append(("D(E2) check_quasitriangular", check_quasitriangular(d8, r8)))
        for name, report in reports:
            tally.expect(name, report.ok)
            verdicts.append(f"{name} {report.ok}")
    except Exception as exc:
        tally.error("drinfeld_double", exc)
    return {"largest_case": "double.D(E2)", "digest": _sha256("\n".join(verdicts)), "info": {}}


WORKLOADS = {
    "verify_all": (verify_inputs, verify_all),
    "azumaya_ladder": (ladder_inputs, azumaya_ladder),
    "drinfeld_double": (double_inputs, drinfeld_double_pass),
}


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, cases: dict[str, float]) -> dict[str, float]:
    from hopfbrauer.verify import SUITES

    totals = tracer.self_times()
    out: dict[str, float] = {}
    for layer, path in TIMED:
        name = f"{layer}.{path}"
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for name in COUNTERS:
        out[name] = tracer.counts[name]
    for suite_id in SUITES:
        out[f"verify.suite.{suite_id}.s"] = cases.get(f"verify.suite.{suite_id}", 0.0)
    return out


def timed_setup(workload: str, seed: int) -> tuple[dict, dict]:
    """Import, build the builtins and make the inputs, between two calibrations."""
    cal_before = calibrate()
    start = clock()
    import_package()
    inputs = WORKLOADS[workload][0](seed)
    setup_s = clock() - start
    return inputs, {"setup_s": setup_s, "cal": [cal_before, calibrate()]}


def run_pass(workload: str, seed: int, trace: bool, pass_id: int = 0, spans_out: Path | None = None) -> dict:
    inputs, out = timed_setup(workload, seed)
    tracer = Tracer(pass_id) if trace else None
    meter = Meter(tracer.span if tracer else None)
    if tracer:
        tracer.install()
    tally = Tally()
    start = clock()
    result = WORKLOADS[workload][1](inputs, tally, meter)
    run_s = clock() - start
    out["cal"].append(calibrate())

    out |= {
        "run_s": run_s,
        "largest_case_s": meter.cases.get(result["largest_case"], 0.0),
        "cases": meter.cases,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "digest": result["digest"],
        "info": result["info"],
    }
    if tracer:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer, meter.cases)
        if spans_out is not None:
            with open(spans_out, "a", encoding="utf-8") as fh:
                for name, begin, end, parent, pid in tracer.spans:
                    fh.write(json.dumps({"name": name, "start": begin, "end": end,
                                         "parent": parent, "pass": pid}) + "\n")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--setup-only", action="store_true", help="time the set-up alone")
    args = parser.parse_args(argv)
    if args.setup_only:
        out = timed_setup(args.workload, args.seed)[1]
    else:
        out = run_pass(args.workload, args.seed, bool(args.trace), args.pass_id, args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
