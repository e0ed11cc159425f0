import json
from fractions import Fraction as Q

import pytest
from conftest import s_cols

from hopfbrauer.defio import (
    SchemaError,
    algebra_to_json,
    builtin_hopf,
    hopf_to_json,
    load_algebra,
    load_hopf,
    load_yd,
    validate_definition,
    yd_to_json,
)
from hopfbrauer.sweedler import CFamilyDescriptor, build_C, build_h4
from hopfbrauer.yd import check_yd_algebra


def test_algebra_round_trip():
    alg = build_h4().alg
    obj = json.loads(json.dumps(algebra_to_json(alg)))
    loaded = load_algebra(obj)
    assert loaded.same_product(alg) and loaded.unit == alg.unit


@pytest.mark.parametrize("name", ["H4", "H4dual", "E2", "DH4"])
def test_hopf_round_trip(name):
    h = builtin_hopf(name)
    obj = json.loads(json.dumps(hopf_to_json(h)))
    loaded = load_hopf(obj)
    assert loaded.same_coproduct(h)
    assert loaded.antipode == h.antipode and loaded.antipode_inv == h.antipode_inv
    assert s_cols(loaded) == s_cols(h) and s_cols(loaded, inverse=True) == s_cols(h, inverse=True)
    kind, _, report = validate_definition(obj)
    assert kind == "hopf" and report.ok


def test_yd_round_trip_with_builtin_hopf():
    c = build_C(CFamilyDescriptor(Q(3), Q(2), Q(5)))
    obj = json.loads(json.dumps(yd_to_json(c, hopf_name="H4")))
    loaded = load_yd(obj)
    assert loaded.action == c.action
    assert loaded.coaction == c.coaction
    assert check_yd_algebra(loaded).ok


def test_yd_round_trip_with_inline_hopf():
    c = build_C(CFamilyDescriptor(Q(1), Q(0), Q(2)))
    obj = json.loads(json.dumps(yd_to_json(c)))
    loaded = load_yd(obj)
    assert check_yd_algebra(loaded).ok


def test_builtin_names():
    assert builtin_hopf("H4").dim == 4
    assert builtin_hopf("H4dual").dim == 4
    assert builtin_hopf("E2").dim == 8
    assert builtin_hopf("DH4").dim == 16
    with pytest.raises(SchemaError):
        builtin_hopf("H6")


def test_missing_coaction_is_schema_error():
    c = build_C(CFamilyDescriptor(Q(1), Q(1), Q(0)))
    obj = yd_to_json(c, hopf_name="H4")
    del obj["coaction"]
    with pytest.raises(SchemaError) as exc:
        load_yd(obj)
    assert "coaction" in str(exc.value)


def test_bad_rational_is_schema_error_with_path():
    c = build_C(CFamilyDescriptor(Q(1), Q(1), Q(0)))
    obj = yd_to_json(c, hopf_name="H4")
    obj["unit"][0] = "one"
    with pytest.raises(SchemaError) as exc:
        load_yd(obj)
    assert "unit[0]" in str(exc.value)


def test_corrupted_associativity_reported_with_triples():
    alg = build_h4().alg
    obj = algebra_to_json(alg)
    obj["mult"][2][1][0] = "5"  # perturb h·g
    kind, _, report = validate_definition(obj)
    assert kind == "algebra"
    assert not report.ok
    assert any("associativity" in f for f in report.failures)
