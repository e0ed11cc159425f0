"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import shutil
import subprocess
import sys
from pathlib import Path

import bench_pass
from bench_pass import Meter, Tally, check_rung, import_package
from tracer import Tracer

import_package()

from hopfbrauer import hopf, linalg, verify, yd  # noqa: E402
from hopfbrauer.sweedler import CFamilyDescriptor, build_C, build_h4  # noqa: E402


def test_wrong_expected_verdict_counts_as_failed():
    d = CFamilyDescriptor(1, 1, 1)  # 2a ≠ st: H₄-Azumaya
    right, wrong = Tally(), Tally()
    check_rung(right, Meter(), "C(1;1,1)", build_C(d), True, d)
    check_rung(wrong, Meter(), "C(1;1,1)", build_C(d), False, d)
    assert right.attempted == wrong.attempted > 0
    assert right.failures == []
    assert len(wrong.failures) == 1 and "H-Azumaya" in wrong.failures[0]


def test_exception_counts_as_failed():
    tally = Tally()
    check_rung(tally, Meter(), "ok", build_C(CFamilyDescriptor(1, 1, 1)), True)
    tally.error("boom", ZeroDivisionError("x"))
    assert tally.attempted > 1 and tally.failures == ["boom: ZeroDivisionError: x"]


def test_ladder_inputs_have_the_expected_verdicts():
    for seed in range(5):
        inputs = bench_pass.ladder_inputs(seed)
        assert inputs == bench_pass.ladder_inputs(seed)
        assert all(d.is_azumaya for d in inputs["azumaya"] + inputs["singular"][1:])
        assert not inputs["singular"][0].is_azumaya
        assert inputs["alpha"] != 0


def test_spans_nest_and_self_times_are_nonnegative():
    tracer = Tracer()
    original_fg, original_det = yd.fg_maps, linalg.mat_det
    tracer.install()
    try:
        # name-imported copies are wrapped too
        assert verify.mat_det is linalg.mat_det is yd.mat_det is not original_det
        tally = Tally()
        with tracer.span("bench.pass"):
            d1, d2 = CFamilyDescriptor(1, 1, 1), CFamilyDescriptor(2, 1, 3)
            check_rung(tally, Meter(tracer.span), "d4", yd.sharp_product(build_C(d1), build_C(d2)), True)
            double, r = hopf.drinfeld_double(build_h4())
            assert hopf.check_quasitriangular(double, r).ok
    finally:
        tracer.uninstall()
    assert yd.fg_maps is original_fg and verify.mat_det is original_det
    assert tally.failures == []

    spans = tracer.spans
    assert spans and all(end is not None and end >= start for _, start, end, _, _ in spans)
    nested = 0
    for name, start, end, parent, _ in spans:
        if parent is None:
            assert name == "bench.pass"
            continue
        _, p_start, p_end, _, _ = spans[parent]
        assert p_start <= start <= end <= p_end
        nested += spans[parent][0] != "bench.pass"
    assert nested > 0  # e.g. drinfeld_double -> antipode_from_bialgebra
    totals = tracer.self_times()
    assert all(calls > 0 and self_s >= 0 for calls, self_s in totals.values())
    assert totals["yd.fg_maps"][0] == 1 and totals["linalg.mat_det"][0] >= 2
    assert tracer.counts["algebra.mul_vec.calls"] > 0
    assert tracer.counts["linalg.mat_det.nnz"] > 0


def test_verify_all_matches_the_all_suite_report():
    tally = Tally()
    out = bench_pass.verify_all({"seed": 7}, tally, Meter())
    report = verify.run_verification(("all",), 7, 20)
    assert out["info"]["records"] == len(report["checks"]) == 478
    assert out["digest"] == bench_pass.canonical_checks_sha256(report["checks"])
    assert tally.failures == [] and tally.attempted == 479


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
