"""Seeded mutation fuzz of the CLI's file inputs: mutants of valid ``define``
and ``theorem61`` definitions must end with exit code 0, 1 or 2 and never
raise, as the documented exit codes promise for any input."""

import copy
import itertools
import json
import random
from collections import Counter
from fractions import Fraction as Q

from hopfbrauer.cli import main
from hopfbrauer.defio import YD_FIELDS, algebra_to_json, hopf_to_json, yd_to_json
from hopfbrauer.e2 import build_c_e2, build_e2, generator_error
from hopfbrauer.sweedler import CFamilyDescriptor, build_C, build_h4

# replacement values: valid and invalid rationals, wrong JSON types, indices
# in and out of range, and builtin and unknown Hopf names
POOL = ["0", "1", "-1", "2/3", "-7/2", "1.5", "1/0", "x", "", 0, 1, -1, 2, 99, 1.5,
        None, True, [], {}, ["0"], "H4", "E2", "H6"]


def _paths(obj, path=()):
    """Every position in a JSON tree, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutant(base: dict, rng: random.Random) -> dict:
    """base with one to three random replacements, deletions or duplications."""
    obj = copy.deepcopy(base)
    for _ in range(rng.randint(1, 3)):
        paths = list(_paths(obj))
        if not paths:
            break
        *parent_path, key = rng.choice(paths)
        parent = obj
        for k in parent_path:
            parent = parent[k]
        action = rng.random()
        if action < 0.7:
            parent[key] = copy.deepcopy(rng.choice(POOL))
        elif action < 0.85:
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = [parent[key]]
    return obj


def _fuzz(capsys, tmp_path, command: str, bases: list[dict], per_base: int, seed: int, wrap=None) -> Counter:
    """Run ``command`` on per_base mutants of each base; ``wrap`` turns a
    mutant's "meta" into the whole file, when only a meta is mutated."""
    rng = random.Random(seed)
    path = tmp_path / "mutant.json"
    codes: Counter = Counter()
    raised = []
    for b, base in enumerate(bases):
        for k in range(per_base):
            mutant = _mutant(base, rng)
            path.write_text(json.dumps(mutant if wrap is None else wrap(mutant.get("meta"))))
            try:
                code = main([command, str(path)])
            except Exception as exc:  # a traceback at the command line
                raised.append(f"{command} base {b} mutant {k}: {type(exc).__name__}: {exc}")
                continue
            finally:
                capsys.readouterr()
            assert code in (0, 1, 2), (command, b, k, code)
            codes[code] += 1
    assert raised == []
    return codes


def test_define_mutants_exit_cleanly(capsys, tmp_path):
    c = build_C(CFamilyDescriptor(Q(3), Q(2), Q(5)))
    bases = [
        algebra_to_json(build_h4().alg),
        hopf_to_json(build_h4()),
        yd_to_json(c, hopf_name="H4"),
        yd_to_json(build_C(CFamilyDescriptor(Q(1), Q(0), Q(2)))),  # inline Hopf algebra
    ]
    codes = _fuzz(capsys, tmp_path, "define", bases, 60, seed=11)
    assert sum(codes.values()) == 240
    assert set(codes) == {0, 1, 2}


def test_theorem61_mutants_exit_cleanly(capsys, tmp_path):
    named = yd_to_json(build_c_e2(1, 2, 3), hopf_name="E2")
    inline = yd_to_json(build_c_e2(2, 1, 5))
    inline["hopf"] = dict(hopf_to_json(build_e2()), meta={"c": 1, "x1": 2, "x2": 4, "pi_keep": [0, 1]})
    codes = _fuzz(capsys, tmp_path, "theorem61", [named, inline], 150, seed=61)
    assert sum(codes.values()) == 300
    assert {0, 2} <= set(codes)


E2_META = {"c": 1, "x1": 2, "x2": 4, "pi_keep": [0, 1]}


def _inline_e2(meta) -> dict:
    """C(2;1,5) over an inline E(2) whose Hopf algebra carries ``meta``."""
    obj = yd_to_json(build_c_e2(2, 1, 5))
    obj["hopf"] = dict(hopf_to_json(build_e2()), meta=meta)
    return obj


def test_theorem61_meta_mutants_exit_cleanly(capsys, tmp_path):
    # the whole-file fuzz above draws no meta deletion in its 300 mutants: the
    # meta is a handful of its paths, so here only the meta is mutated
    codes = _fuzz(capsys, tmp_path, "theorem61", [{"meta": E2_META}], 60, seed=62, wrap=_inline_e2)
    assert sum(codes.values()) == 60
    assert {0, 2} <= set(codes)


def test_each_e2_meta_key_deleted_exits_2(capsys, tmp_path):
    # theorem61_check reads c, x1 and x2 from the meta; a missing one raised KeyError
    for key in ("c", "x1", "x2"):
        meta = {k: v for k, v in E2_META.items() if k != key}
        line = f"error: theorem61 needs a YD definition over E2: the Hopf algebra's meta has no {key!r}\n"
        assert _run(capsys, tmp_path, "theorem61", _inline_e2(meta)) == (2, "", line)


def test_theorem61_refuses_a_meta_that_mislabels_the_generators(capsys, tmp_path):
    # the first two ran the theorem on the wrong generators: the unit as c printed
    # "graded central simple: False" and exited 0, c = x1 = 0 and x2 = x1x2
    # printed "three-way equivalence holds: False" and exited 1
    cases = [
        ({"c": 0, "x1": 2, "x2": 4}, "meta 'c' = 0 is not a grouplike other than 1"),
        ({"c": 0, "x1": 0, "x2": 6}, "meta 'c' = 0 is not a grouplike other than 1"),
        ({"c": 1, "x1": 3, "x2": 4}, "meta 'x1' = 3 has Δ(x1) ≠ 1⊗x1 + x1⊗c"),
        ({"c": 1, "x1": 2, "x2": 6}, "meta 'x2' = 6 has Δ(x2) ≠ 1⊗x2 + x2⊗c"),
        ({"c": 1, "x1": 4, "x2": 4}, "meta 'x2' = 4 is 'x1'"),
    ]
    for meta, why in cases:
        line = f"error: theorem61 needs the generators of E2: {why}\n"
        assert _run(capsys, tmp_path, "theorem61", _inline_e2(dict(meta, pi_keep=[0, 1]))) == (2, "", line)
    assert _run(capsys, tmp_path, "theorem61", _inline_e2(dict(E2_META, x1=4, x2=2)))[0] == 0


def test_the_generator_check_accepts_exactly_c_and_the_two_orders_of_x1_x2():
    # decided on the stores, once per meta, without running the theorem
    accepted = []
    for c, x1, x2 in itertools.product(range(8), repeat=3):
        h = copy.copy(build_e2())
        h.meta = {"c": c, "x1": x1, "x2": x2}
        if generator_error(h) is None:
            accepted.append((c, x1, x2))
    assert accepted == [(1, 2, 4), (1, 4, 2)]


def test_root_mutants_exit_cleanly(capsys, tmp_path):
    # ``_paths`` skips the root, so each POOL value stands in for a whole file
    # here; a root that is not an object raised TypeError in detect_kind
    path = tmp_path / "root.json"
    for command, prefix in (("define", "schema error: "), ("theorem61", "error: ")):
        for value in POOL:
            path.write_text(json.dumps(value))
            code = main([command, str(path)])
            err = capsys.readouterr().err
            want = "missing field 'dim'" if value == {} else f"expected a JSON object, got {value!r}"
            assert (code, err) == (2, f"{prefix}{'algebra' if value == {} else 'definition'}: {want}\n"), value


def _run(capsys, tmp_path, command: str, obj) -> tuple[int, str, str]:
    path = tmp_path / "def.json"
    path.write_text(json.dumps(obj))
    code = main([command, str(path)])
    return (code, *capsys.readouterr())


def test_a_yd_file_without_coaction_is_no_algebra_file(capsys, tmp_path):
    # it was read as an algebra and passed; its action was never read
    obj = yd_to_json(build_C(CFamilyDescriptor(Q(3), Q(2), Q(5))), hopf_name="H4")
    del obj["coaction"]
    obj["action"][1][0] = ["x", "y"]
    assert _run(capsys, tmp_path, "define", obj) == (2, "", "schema error: yd: missing field 'coaction'\n")


def test_each_yd_field_deleted_exits_2(capsys, tmp_path):
    bases = [
        yd_to_json(build_C(CFamilyDescriptor(Q(3), Q(2), Q(5))), hopf_name="H4"),
        yd_to_json(build_C(CFamilyDescriptor(Q(1), Q(0), Q(2)))),
        yd_to_json(build_c_e2(1, 2, 3), hopf_name="E2"),
    ]
    for base in bases:
        for command, prefix in (("define", "schema error: "), ("theorem61", "error: ")):
            for key in YD_FIELDS:
                obj = {k: v for k, v in base.items() if k != key}
                assert _run(capsys, tmp_path, command, obj) == (2, "", f"{prefix}yd: missing field '{key}'\n")
            # a Hopf field beside the YD fields
            line = f"{prefix}definition: 'coproduct' and the YD field 'hopf' in one file\n"
            assert _run(capsys, tmp_path, command, dict(base, coproduct=[])) == (2, "", line)
