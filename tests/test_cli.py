import dataclasses
import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest

from hopfbrauer.cli import main
from hopfbrauer.defio import yd_to_json
from hopfbrauer.sweedler import CFamilyDescriptor, build_C


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_single_suite(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "thm5.2", "--seed", "3", "--json", str(report_path)
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["all_pass"]
    assert all(rec["anchor"] for rec in report["checks"])
    assert "checks passed" in out


# sha256 of the file `hopfbrauer verify --suite all --seed 7 --samples 20 --json` writes
REPORT_SHA256_SEED_7_SAMPLES_20 = "31fc7097b9a82fb9cb90e1547ab42fb9aae661366d38789a7c8c3a4af6d98e7c"


def test_seed7_report_file_is_pinned(capsys, tmp_path):
    report_path = tmp_path / "r.json"
    argv = ["verify", "--suite", "all", "--seed", "7", "--samples", "20", "--json", str(report_path)]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == REPORT_SHA256_SEED_7_SAMPLES_20


def test_verify_unknown_suite_is_usage_error(capsys):
    from hopfbrauer.verify import SUITES

    code, out, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: unknown suite(s): ['nope']; known: {sorted(SUITES)}"]


def test_verify_thm63_with_parameters(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "thm6.3", "--t", "3", "--q", "0")
    assert code == 0


@pytest.mark.parametrize("bad", [("--t", "0"), ("--t", "1"), ("--q", "2")])
def test_verify_thm63_excluded_parameters_are_usage_errors(capsys, bad):
    code, out, err = run_cli(capsys, "verify", "--suite", "thm6.3", *bad)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "q ≠ 2" in err


def test_verify_determinism(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "verify", "--suite", "qt", "--seed", "11", "--json", str(p1))[0] == 0
    assert run_cli(capsys, "verify", "--suite", "qt", "--seed", "11", "--json", str(p2))[0] == 0
    r1, r2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    assert r1["checks"] == r2["checks"]
    assert json.dumps(json.loads(p1.read_text())["checks"]) == json.dumps(
        json.loads(p2.read_text())["checks"]
    )


def test_classify_outputs(capsys):
    code, out, _ = run_cli(capsys, "classify", "1", "2", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["azumaya"] is True
    assert payload["bm0"] == {"beta": "1", "square_class": 1}
    code, out, _ = run_cli(capsys, "classify", "1", "0", "0")
    payload = json.loads(out)
    assert payload["azumaya"] and payload["bm0"]["beta"] == "0"
    assert payload["membership"] == {"i": "all", "iota": "all"}


def test_classify_non_azumaya_message(capsys):
    code, out, _ = run_cli(capsys, "classify", "1", "1", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["azumaya"] is False and "not Azumaya" in payload["note"]


def test_classify_parse_failure_is_exit_2(capsys):
    assert run_cli(capsys, "classify", "one", "2", "0")[0] == 2


def test_classify_large_numerator_ends_with_exit_2(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", "1000000000000000003", "0", "0")
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "square class" in err


def test_raising_suite_is_recorded_and_the_run_goes_on(capsys, monkeypatch):
    from hopfbrauer import verify

    def broken(s):
        s.check("first", "before the fault", True)
        raise RuntimeError("suite body broke")

    monkeypatch.setitem(verify.SUITES, "qt", broken)
    report = verify.run_verification(("qt", "thm3.3"), seed=1, samples=2)
    assert [r for r in report["checks"] if r["check_id"].startswith("qt.")] == [
        {"check_id": "qt.first", "anchor": "before the fault", "params": {}, "status": "pass", "witness": None},
        {
            "check_id": "qt.suite-error",
            "anchor": "the suite raised before finishing",
            "params": {},
            "status": "error",
            "witness": {"type": "RuntimeError", "message": "suite body broke"},
        },
    ]
    assert report["suites"]["qt"] == {"pass": 1, "fail": 1}
    assert report["suites"]["thm3.3"]["pass"] > 0
    assert report["all_pass"] is False
    code, out, _ = run_cli(capsys, "verify", "--suite", "qt", "--suite", "thm3.3", "--samples", "2")
    assert code == 1
    assert "ERROR qt.suite-error: RuntimeError: suite body broke" in out


def test_product_presentation(capsys):
    code, out, _ = run_cli(capsys, "product", "1", "0", "2", "1", "1", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["relations"]["XY+YX"] == "2"
    assert payload["structure"]["dim"] == 4


def test_conjugate(capsys):
    code, out, _ = run_cli(capsys, "conjugate", "3", "2", "5", "7/3")
    assert code == 0
    assert out.strip() == "C(3;14/3,15/7)"
    assert run_cli(capsys, "conjugate", "3", "2", "5", "0")[0] == 2


def test_transport(capsys):
    code, out, _ = run_cli(capsys, "transport", "psi", "1", "0", "1", "--param", "2")
    assert code == 0 and out.strip() == "C(2;2,1)"
    code, out, _ = run_cli(capsys, "transport", "phi", "5", "1", "3")
    assert code == 0 and out.strip() == "C(5;3,1)"
    assert run_cli(capsys, "transport", "psi", "1", "1", "1", "--param", "2")[0] == 2
    assert run_cli(capsys, "transport", "psi", "1", "0", "1")[0] == 2


def test_intersect(capsys):
    code, out, _ = run_cli(capsys, "intersect", "2", "1/2")
    assert code == 0
    assert "nontrivial" in out and "witness" in out


def test_kernel_witness(capsys):
    code, out, _ = run_cli(capsys, "kernel-witness")
    assert code == 0
    assert out.count("PASS") == 6


def test_counterexample(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "2", "3")
    assert code == 0
    assert "closure fails" in out
    assert run_cli(capsys, "counterexample", "1", "3")[0] == 2


# each refusal of a command: exit code 2, nothing on stdout, one message
ERROR_PATHS = [
    (("transport", "psi", "1", "0", "1"), "psi transport needs --param"),
    (("transport", "psi", "1", "1", "1", "--param", "2"), "Ψ_s needs shape (a;0,1), got C(1;1,1)"),
    (("counterexample", "1", "3"), "need t ∉ {0,1} and q ≠ 2"),
    (("conjugate", "3", "2", "5", "0"), "automorphism parameter must be nonzero"),
    (("theorem61",), "provide a file or --c A T1 T2"),
    (("theorem61", "--c", "1", "2", "1"), "algebra is not (E(2),R_N)-Azumaya; the equivalence does not apply"),
]


@pytest.mark.parametrize("argv, message", ERROR_PATHS, ids=[" ".join(argv) for argv, _ in ERROR_PATHS])
def test_an_error_path_is_pinned(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_theorem61_file_errors_are_pinned(capsys, tmp_path):
    from hopfbrauer.e2 import build_c_e2

    missing = tmp_path / "missing.json"
    line = f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    assert run_cli(capsys, "theorem61", str(missing)) == (2, "", line)
    obj = yd_to_json(build_c_e2(1, 2, 3), hopf_name="E2")
    obj["mult"][1][1][1] = "9"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    laws = "".join(f"  module algebra over E2: module-algebra law fails at ({h}; x,x)\n"
                   for h in ("c", "x1", "cx1", "x2", "cx2"))
    assert run_cli(capsys, "theorem61", str(bad)) == (2, "", "error: definition fails its axioms:\n" + laws)


def test_theorem61_builtin(capsys):
    code, out, _ = run_cli(capsys, "theorem61", "--c", "1", "1", "1")
    assert code == 0
    assert "three-way equivalence holds: True" in out


def test_theorem61_from_file(capsys, tmp_path):
    from hopfbrauer.e2 import build_c_e2

    path = tmp_path / "alg.json"
    path.write_text(json.dumps(yd_to_json(build_c_e2(1, 2, 3), hopf_name="E2")))
    code, out, _ = run_cli(capsys, "theorem61", str(path))
    assert code == 0


def test_inline_hopf_meta_indices_are_validated(capsys, tmp_path):
    from hopfbrauer.defio import hopf_to_json
    from hopfbrauer.e2 import build_c_e2, build_e2

    good_meta = {"c": 1, "x1": 2, "x2": 4, "pi_keep": [0, 1]}

    def write(meta):
        obj = yd_to_json(build_c_e2(1, 2, 3))
        obj["hopf"] = dict(hopf_to_json(build_e2()), meta=meta)
        path = tmp_path / "inline.json"
        path.write_text(json.dumps(obj))
        return str(path)

    assert run_cli(capsys, "theorem61", write(good_meta))[0] == 0
    for field, bad in (
        ("c", 99),
        ("x1", "2"),
        ("x2", -1),
        ("pi_keep", [0]),
        ("pi_keep[1]", [0, 8]),
    ):
        key = field.split("[")[0]
        code, _, err = run_cli(capsys, "theorem61", write(dict(good_meta, **{key: bad})))
        assert code == 2, field
        assert f"yd.hopf.meta.{field}:" in err and len(err.strip().splitlines()) == 1


# each command that takes a rational, with a negative one as argparse's
# default pattern (-5, -.5) does not read it; the reference spells the same
# arguments with "--" or "=", which argparse always read as values
NEGATIVE_RATIONALS = [
    (("classify", "-7/3", "2", "0"), ("classify", "--", "-7/3", "2", "0")),
    (("product", "-1/2", "0", "2", "1", "1", "4"), ("product", "--", "-1/2", "0", "2", "1", "1", "4")),
    (("conjugate", "1", "1", "1", "-2/3"), ("conjugate", "--", "1", "1", "1", "-2/3")),
    (("transport", "psi", "1", "0", "1", "--param", "-1/2"), ("transport", "psi", "1", "0", "1", "--param=-1/2")),
    (("intersect", "-1/2", "3"), ("intersect", "--", "-1/2", "3")),
    (("counterexample", "-1/2", "3"), ("counterexample", "--", "-1/2", "3")),
    (("verify", "--suite", "thm6.3", "--t", "-1/2"), ("verify", "--suite", "thm6.3", "--t=-1/2")),
]


@pytest.mark.parametrize("argv, reference", NEGATIVE_RATIONALS, ids=[a[0] for a, _ in NEGATIVE_RATIONALS])
def test_a_negative_rational_is_a_value(capsys, argv, reference):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert (code, out, err) == run_cli(capsys, *reference)


def test_theorem61_reads_a_negative_rational(capsys, tmp_path):
    # --c takes three values, so "--c=-1/2 1 1" is no reference: the same
    # algebra is read from a file instead
    from hopfbrauer.e2 import build_c_e2

    path = tmp_path / "alg.json"
    path.write_text(json.dumps(yd_to_json(build_c_e2(Q(-1, 2), 1, 1), hopf_name="E2")))
    code, out, err = run_cli(capsys, "theorem61", "--c", "-1/2", "1", "1")
    assert code == 0 and err == "" and "three-way equivalence holds: True" in out
    assert (code, out, err) == run_cli(capsys, "theorem61", str(path))


@pytest.mark.parametrize("word", ["-7/3", "-1e3", "-.5", "-2.5e-1", "-1_000", "-0"])
def test_every_negative_word_parse_rational_reads_is_a_value(capsys, word):
    code, out, err = run_cli(capsys, "classify", word, "2", "0")
    assert code == 0 and err == ""
    assert (code, out, err) == run_cli(capsys, "classify", "--", word, "2", "0")


def test_a_dash_word_that_starts_like_a_number_is_parsed_and_refused(capsys):
    code, out, err = run_cli(capsys, "classify", "-1/0", "2", "0")
    assert code == 2 and out == ""
    assert err.endswith("error: argument a: not a rational: '-1/0'\n")
    # an option still is one
    assert run_cli(capsys, "classify", "-x", "2", "0")[0] == 2


def test_define_builtin_and_files(capsys, tmp_path):
    assert run_cli(capsys, "define", "H4")[0] == 0
    good = tmp_path / "c.json"
    good.write_text(json.dumps(yd_to_json(build_C(CFamilyDescriptor(Q(1), Q(1), Q(0))), "H4")))
    code, out, _ = run_cli(capsys, "define", str(good))
    assert code == 0 and "valid yd definition" in out

    bad_schema = tmp_path / "bad.json"
    obj = json.loads(good.read_text())
    del obj["coaction"]
    obj["coproduct"] = "nope"
    bad_schema.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "define", str(bad_schema))
    assert code == 2

    corrupted = tmp_path / "corrupt.json"
    obj = json.loads(good.read_text())
    obj["mult"][1][1][1] = "9"
    corrupted.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "define", str(corrupted))
    assert code == 1 and "invalid" in out

    assert run_cli(capsys, "define", str(tmp_path / "missing.json"))[0] == 2


def test_define_rejects_bad_antipodes_with_field_path(capsys, tmp_path):
    from hopfbrauer.defio import hopf_to_json
    from hopfbrauer.sweedler import build_h4

    good = hopf_to_json(build_h4())
    no_inv = {k: v for k, v in good.items() if k != "antipode_inv"}
    cases = [
        (dict(no_inv, antipode=[["0"] * 4 for _ in range(4)]), "hopf.antipode: singular"),
        (dict(no_inv, antipode=good["antipode"][:3]), "hopf.antipode: expected 4 rows"),
        (dict(good, antipode_inv=good["antipode_inv"][:2]), "hopf.antipode_inv: expected 4 rows"),
    ]
    for k, (obj, message) in enumerate(cases):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "define", str(path))
        assert code == 2 and message in err, (k, err)


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_samples_below_one(capsys, samples):
    code, out, err = run_cli(capsys, "verify", "--suite", "aut", "--samples", samples)
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: --samples must be at least 1, got {samples}"]


@pytest.mark.parametrize("samples", ["10001", "100000000000"])
def test_verify_rejects_samples_above_the_bound(capsys, samples):
    code, out, err = run_cli(capsys, "verify", "--suite", "qt", "--samples", samples)
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: --samples must be at most 10000, got {samples}"]


def test_import_loads_no_dataclasses_or_inspect():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import hopfbrauer, hopfbrauer.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-I", "-B", "-c", code, str(src)], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout.strip(), run.stderr) == (0, "[]", "")


def test_plain_records_keep_their_dataclass_behaviour():
    from hopfbrauer.verify import run_verification

    d = CFamilyDescriptor(1, 2, 3)
    assert [type(v) for v in (d.a, d.t, d.s)] == [Q] * 3
    same = CFamilyDescriptor(Q(1), Q(2), Q(3))
    assert d == same and hash(d) == hash(same) == hash((Q(1), Q(2), Q(3)))
    assert d != CFamilyDescriptor(1, 2, 4) and d != (Q(1), Q(2), Q(3))
    assert len({d, same, CFamilyDescriptor(1, 2, 4)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.a = Q(5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del d.t
    assert (d.a, d.t, d.s) == (1, 2, 3)
    assert repr(d) == "C(1;2,3)"
    report = run_verification(("thm3.3", "eq5.1"), seed=1, samples=1)
    assert report["checks"]
    for row in report["checks"]:
        assert list(row) == ["check_id", "anchor", "params", "status", "witness"]


def test_empty_report_does_not_pass():
    from hopfbrauer.verify import run_verification

    report = run_verification(("thm3.3",), seed=1, samples=1)
    assert report["checks"] and report["all_pass"]
    report = run_verification((), seed=1, samples=1)
    assert report["checks"] == [] and report["summary"]["total"] == 0
    assert report["all_pass"] is False
