"""Benchmark of the hopfbrauer package, run from the root of a checkout.

    python3 perfbench/run.py --workload verify_all --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each pass runs in a fresh single-threaded interpreter (bench_pass.py), one
after another, until ``--seconds`` have gone by. With ``--trace 0`` the
result holds the end-to-end metrics, as medians over the passes; with
``--trace 1`` untraced and traced passes alternate, and the result holds the
per-layer metrics of the traced passes plus the tracing overhead. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_pass import WORKLOADS

HERE = Path(__file__).resolve().parent
PASS_SCRIPT = HERE / "bench_pass.py"
OUT_DIR = HERE / "out"
DEADLINE_S = 170   # a run of one workload must end within 180 s
MIN_SETUPS = 5     # setup_s is a median over at least this many set-ups
CAL_REF_S = 0.25   # calibration kernel time, in seconds, that defines the reference speed


class PassFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one bench_pass.py process to completion and parse its last line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed("no time left for another pass")
    try:
        proc = subprocess.run(
            [sys.executable, str(PASS_SCRIPT), *args],
            capture_output=True, text=True, timeout=timeout,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {args} exceeded the deadline") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Run passes of one workload; return plain and traced pass results."""
    base = ["--workload", workload, "--seed", str(seed)]
    spans_out = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_out.write_text("")
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        traced_turn = trace and len(traced) < len(plain)
        if traced_turn:
            extra = ["--trace", "1", "--pass-id", str(len(traced)), "--spans-out", str(spans_out)]
            traced.append(spawn(base + extra, deadline))
        else:
            plain.append(spawn(base, deadline))
        if time.monotonic() - start >= seconds and (not trace or len(traced) == len(plain)):
            break
    setups = plain + traced
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(base + ["--setup-only"], deadline))
    return {"plain": plain, "traced": traced, "setups": setups, "spans_out": spans_out}


def to_reference(p: dict, key: str) -> float:
    """A wall time of process ``p`` in reference seconds: scaled by CAL_REF_S
    over the mean of the two calibration runs that bracket it (set-up sits
    between the first two, the pass between the last two)."""
    cal = p["cal"][:2] if key == "setup_s" else p["cal"][1:]
    return p[key] * CAL_REF_S / statistics.fmean(cal)


def summarize(workload: str, seed: int, trace: bool, m: dict) -> dict:
    plain, traced = m["plain"], m["traced"]
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    digests = {p["digest"] for p in passes}
    attempted += 1  # every pass must produce the same outputs
    if len(digests) != 1:
        failures.append(f"passes disagree on their output digest: {sorted(digests)}")

    def median(key: str, group=plain, ref=True) -> float:
        return statistics.median(to_reference(p, key) if ref else p[key] for p in group)

    if trace:
        metrics = {
            name: {"value": statistics.median(p["layers"][name] for p in traced),
                   "unit": "count" if name.endswith((".calls", ".nnz", ".entries")) else "s"}
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_s"] = {"value": median("run_s", traced) - median("run_s"), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": median("setup_s", m["setups"]), "unit": "s"},
            "run_s": {"value": median("run_s"), "unit": "s"},
            "largest_case_s": {"value": median("largest_case_s"), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb", ref=False), "unit": "MB"},
        }

    print(f"== {workload}  seed {seed}  trace {int(trace)}")
    provenance = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "python": platform.python_version(), "host": platform.node(), "nproc": os.cpu_count(),
        "passes": len(plain), "traced_passes": len(traced), "setups": len(m["setups"]),
    }
    print("provenance " + json.dumps(provenance))
    info = plain[0]["info"]
    if "records" in info:
        print(f"verify: {info['records']} records, checks sha256 {info['checks_sha256']}")
        print("  per-suite split, median reference s (wall s):")
        for name in plain[0]["cases"]:
            wall = statistics.median(p["cases"][name] for p in plain)
            ref = statistics.median(p["cases"][name] * to_reference(p, "run_s") / p["run_s"] for p in plain)
            print(f"    {name.removeprefix('verify.suite.'):<12} {ref:10.4f} ({wall:.4f})")
    for group, label in ((plain, "run_s"), (traced, "traced run_s")):
        if group:
            print(f"  {label} per pass, wall s: " + " ".join(f"{p['run_s']:.4f}" for p in group))
    if not trace:
        print("  wall-clock medians: " + ", ".join(
            f"{key} {median(key, m['setups'] if key == 'setup_s' else plain, ref=False):.4f} s"
            for key in ("setup_s", "run_s", "largest_case_s")))
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:14.6f} {metric['unit']}")
    if trace:
        print(f"  spans written to {m['spans_out']}")
    print(f"  fail_frac {len(failures)}/{attempted} = {len(failures) / attempted:.6f}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    # A terminated run raises SystemExit, so subprocess.run kills and reaps its pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            m = measure(name, args.seed, args.seconds, bool(args.trace), time.monotonic() + DEADLINE_S)
            results[name] = summarize(name, args.seed, bool(args.trace), m)
    except PassFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
