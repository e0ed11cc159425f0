"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them). All arithmetic is
exact, so every comparison is an equality at zero tolerance; the sampled
checks use the fixed seed below and the per-criterion sample counts.
"""

import hashlib
import json
import time

from hopfbrauer.verify import run_verification

SEED = 2026
# sha256 of the canonical JSON of the `checks` of run_verification(("all",), SEED, 10),
# measured before the sparse contraction kernel replaced the dense loops
CHECKS_SHA256_SEED_2026_SAMPLES_10 = "89b7c6b8934c470f98dbf6ff20932ad899c6b261dd6c08724ed9f6318aa55b8c"
# the same digest of run_verification(("all",), 7, 20), the report of
# `hopfbrauer verify --suite all --seed 7 --samples 20`
CHECKS_SHA256_SEED_7_SAMPLES_20 = "ce53e4e5593c185f2b16d5ffa72cdfec6ff9842b09b7baa0dbbe42f420403391"


def _criterion(number: int, description: str, suites, samples: int, options=None) -> dict:
    start = time.time()
    report = run_verification(suites, seed=SEED, samples=samples, options=options or {})
    elapsed = time.time() - start
    status = "PASS" if report["all_pass"] else "FAIL"
    print(
        f"criterion {number:2d}: {status} — {description} "
        f"({report['summary']['pass']}/{report['summary']['total']} checks, {elapsed:.1f}s)"
    )
    if not report["all_pass"]:
        for rec in report["checks"]:
            if rec["status"] == "fail":
                print(f"    failed: {rec['check_id']} {rec['params']} {rec['witness']}")
    assert elapsed < 60, "criterion exceeded the 60 s budget"
    return report


def test_criterion_01_hopf_axioms():
    report = _criterion(
        1,
        "H4, H4*, E(2), D(H4) pass all Hopf axioms; the ten D(H4) relations hold verbatim",
        ["hopf"],
        samples=20,
    )
    assert report["all_pass"]
    ids = {rec["check_id"] for rec in report["checks"]}
    assert sum(1 for cid in ids if "dh4-relation-" in cid) == 10


def test_criterion_02_cotriangularity():
    report = _criterion(
        2,
        "20 sampled t: R_t quasitriangular+triangular, r_t cotriangular, (φ⊗φ)(R_t) = r_t",
        ["qt"],
        samples=20,
    )
    assert report["all_pass"]
    assert report["summary"]["total"] >= 60


def test_criterion_03_lemma21():
    report = _criterion(
        3,
        "Lemma 2.1 suite at 20 random (a,t,s): YD validity, det F/G, Azumaya iff 2a≠st, "
        "opposites, items (2)-(6)",
        ["lemma2.1"],
        samples=20,
    )
    assert report["all_pass"]


def test_criterion_04_lemma22():
    report = _criterion(
        4,
        "sharp products of two C's match the quaternion presentation exactly, 20 samples",
        ["lemma2.2"],
        samples=20,
    )
    assert report["all_pass"]
    assert report["summary"]["total"] >= 20


def test_criterion_05_prop23():
    report = _criterion(
        5,
        "witness-solved β equals t²(4a)⁻¹ for 20 samples, closed form and linear solve agree",
        ["prop2.3"],
        samples=20,
    )
    assert report["all_pass"]


def test_criterion_06_transports():
    report = _criterion(
        6,
        "Ψ_s: (a,0,1) ↦ (a+s/2,s,1) and Φ: (a,1,t) ↦ (a,t,1) with structural validation",
        ["transports"],
        samples=20,
    )
    assert report["all_pass"]
    psi = sum(1 for r in report["checks"] if ".psi-" in r["check_id"])
    phi = sum(1 for r in report["checks"] if ".phi-" in r["check_id"])
    assert psi >= 10 and phi >= 10


def test_criterion_07_aut_action():
    report = _criterion(
        7,
        "conjugation-twisted C(a;t,s) is YD-isomorphic to C(a;αt,sα⁻¹), 20 samples",
        ["aut"],
        samples=20,
    )
    assert report["all_pass"]
    assert sum(1 for r in report["checks"] if ".conj-" in r["check_id"]) >= 20


def test_criterion_08_kernel_witness():
    report = _criterion(
        8,
        "exactness witness: all six verification steps pass, including the failed "
        "strongly-inner search on both sign branches",
        ["thm5.2"],
        samples=20,
    )
    assert report["all_pass"]
    steps = [r for r in report["checks"] if r["check_id"].startswith("thm5.2.step-")]
    assert len(steps) == 6


def test_criterion_09_pushforwards():
    report = _criterion(
        9,
        "(T⊗T) of the canonical element equals the stated 8-term R_N; "
        "(θ⊗θ)(R_N) = R_{λμ} for 10 samples",
        ["eq5.1"],
        samples=20,
    )
    assert report["all_pass"]
    assert sum(1 for r in report["checks"] if ".theta-push-" in r["check_id"]) >= 10


def test_criterion_10_appendix():
    report = _criterion(
        10,
        "braiding and F/G decompositions on ≥50 homogeneous samples; three-way inner/GCS "
        "equivalence on a mixed corpus of 10; closure failure for 5 sampled (t,q)",
        ["appendix"],
        samples=50,
    )
    assert report["all_pass"]
    corpus = [r for r in report["checks"] if ".thm6.1-" in r["check_id"]]
    assert len(corpus) >= 10
    demos = [r for r in report["checks"] if ".thm6.3-" in r["check_id"]]
    assert len(demos) >= 5


def test_criterion_11_determinism():
    start = time.time()
    first = run_verification(("all",), seed=SEED, samples=10)
    second = run_verification(("all",), seed=SEED, samples=10)
    identical = json.dumps(first["checks"]) == json.dumps(second["checks"])
    status = "PASS" if (identical and first["all_pass"]) else "FAIL"
    print(
        f"criterion 11: {status} — identical check records on re-run with the same seed "
        f"({first['summary']['total']} records, {time.time() - start:.1f}s)"
    )
    assert identical
    assert first["all_pass"]
    canonical = json.dumps(first["checks"], sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == CHECKS_SHA256_SEED_2026_SAMPLES_10


def test_criterion_12_seed7_report_is_pinned():
    report = run_verification(("all",), seed=7, samples=20)
    canonical = json.dumps(report["checks"], sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    pinned = hashlib.sha256(canonical.encode("utf-8")).hexdigest() == CHECKS_SHA256_SEED_7_SAMPLES_20
    status = "PASS" if report["all_pass"] and pinned else "FAIL"
    print(f"criterion 12: {status} — the seed-7 report keeps its pinned digest ({len(report['checks'])} records)")
    assert report["all_pass"] and len(report["checks"]) == 478
    assert pinned
