import json
from fractions import Fraction as Q

import pytest
from conftest import s_cols

from hopfbrauer.algebra import StructureAlgebra
from hopfbrauer.cli import main
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
from hopfbrauer.e2 import witness_p_module
from hopfbrauer.hopf import HopfAlgebra
from hopfbrauer.sweedler import CFamilyDescriptor, build_C, build_h4
from hopfbrauer.yd import YDObject, check_yd_algebra, module_tensor


def stores(obj):
    """Every integer store of an algebra, a Hopf algebra or a YD object, with
    those of the algebra and the Hopf algebra it is built on, by name."""
    names = ("int_unit", "int_sp", "int_cop", "int_counit", "int_s", "int_s_inv", "int_images", "int_rho")
    out = {name: getattr(obj, name) for name in names if hasattr(obj, name)}
    for part in ("alg", "hopf"):
        if getattr(obj, part, None) is not None:
            out.update({f"{part}.{k}": v for k, v in stores(getattr(obj, part)).items()})
    return out


def test_algebra_round_trip():
    alg = build_h4().alg
    obj = json.loads(json.dumps(algebra_to_json(alg)))
    loaded = load_algebra(obj)
    assert stores(loaded) == stores(alg) and list(stores(alg)) == ["int_unit", "int_sp"]


@pytest.mark.parametrize("name", ["H4", "H4dual", "E2", "DH4"])
def test_hopf_round_trip(name):
    h = builtin_hopf(name)
    obj = json.loads(json.dumps(hopf_to_json(h)))
    loaded = load_hopf(obj)
    assert stores(loaded) == stores(h) and len(stores(h)) == 6
    assert s_cols(loaded) == s_cols(h) and s_cols(loaded, inverse=True) == s_cols(h, inverse=True)
    kind, _, report = validate_definition(obj)
    assert kind == "hopf" and report.ok


def test_yd_round_trip_with_builtin_hopf():
    c = build_C(CFamilyDescriptor(Q(3), Q(2), Q(5)))
    obj = json.loads(json.dumps(yd_to_json(c, hopf_name="H4")))
    loaded = load_yd(obj)
    assert stores(loaded) == stores(c) and len(stores(c)) == 10
    assert check_yd_algebra(loaded).ok


def test_yd_round_trip_with_inline_hopf():
    c = build_C(CFamilyDescriptor(Q(1), Q(0), Q(2)))
    obj = json.loads(json.dumps(yd_to_json(c)))
    loaded = load_yd(obj)
    assert stores(loaded) == stores(c) and len(stores(c)) == 10
    assert check_yd_algebra(loaded).ok


@pytest.mark.parametrize("name", ["H4", "H4dual", "E2", "DH4"])
def test_hopf_without_antipode_inv_loads_the_inverse(name):
    h = builtin_hopf(name)
    obj = json.loads(json.dumps(hopf_to_json(h)))
    del obj["antipode_inv"]
    assert load_hopf(obj).int_s_inv == h.int_s_inv


def test_singular_antipode_without_inverse_is_schema_error(capsys, tmp_path):
    obj = hopf_to_json(build_h4())
    del obj["antipode_inv"]
    obj["antipode"][3] = list(obj["antipode"][2])  # rank 3
    with pytest.raises(SchemaError, match="^hopf.antipode: singular matrix, so not an antipode$"):
        load_hopf(obj)
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(obj))
    assert main(["define", str(path)]) == 2
    assert capsys.readouterr().err == "schema error: hopf.antipode: singular matrix, so not an antipode\n"


@pytest.mark.parametrize("dim", [True, False, 0, "1", 1.0])
def test_a_dim_that_is_not_a_positive_int_is_refused(dim):
    # "dim": true was read as dim 1
    obj = {"dim": dim, "basis": ["1"], "unit": ["1"], "mult": [[["1"]]]}
    with pytest.raises(SchemaError, match="^algebra.dim: must be a positive integer$"):
        load_algebra(obj)
    assert load_algebra(dict(obj, dim=1)).int_sp == (1, [[((0, 1),)]])


def test_each_carrier_has_one_constructor():
    # the dense constructors are gone: a dense input reaches a carrier through
    # a loader of this module
    h4 = build_h4()
    for cls, args in ((StructureAlgebra, (h4.alg.basis, [1, 0, 0, 0], [])), (HopfAlgebra, (h4.alg, [], [], None)),
                      (YDObject, (h4, 1))):
        with pytest.raises(TypeError, match="takes no arguments"):
            cls(*args)


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


def test_yd_to_json_of_a_module_without_product_is_refused():
    with pytest.raises(ValueError, match="^yd_to_json: the object has no product and no coaction$"):
        yd_to_json(module_tensor(witness_p_module(), witness_p_module()))


def test_yd_to_json_of_an_object_without_coaction_is_refused():
    c = build_C(CFamilyDescriptor(Q(1), Q(1), Q(0)))
    with pytest.raises(ValueError, match="^yd_to_json: the object has no coaction$"):
        yd_to_json(YDObject.from_int(c.hopf, c.dim, c.alg, c.int_images))


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
