"""JSON definition files for algebras, Hopf algebras and YD module algebras.

Rationals are serialized as "p/q" or "p" strings everywhere. The schemas
(see README for examples):

  algebra:  {"dim", "basis", "unit", "mult"}
            mult[i][j] is the coefficient vector of e_i·e_j.
  hopf:     algebra keys plus {"coproduct", "counit", "antipode"} and an
            optional "antipode_inv"; coproduct[i] is a dim×dim matrix with
            entry [p][q] the coefficient of e_p⊗e_q in Δ(e_i).
  yd:       algebra keys plus {"hopf": <builtin name or inline hopf>,
            "action", "coaction"}; action[i][j] is the image vector of
            e_i^H·e_j^A, coaction[j][a] is the H-coefficient vector of the
            e_a-component of ρ(e_j).

Builtin Hopf names: H4, H4dual, E2, DH4.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import StructureAlgebra, check_algebra_axioms
from .hopf import HopfAlgebra, check_hopf_axioms
from .linalg import Matrix, format_rational, parse_rational
from .yd import YDObject, check_yd_algebra


class SchemaError(ValueError):
    """Malformed definition file; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(path, f"missing field '{key}'")
    return obj[key]


def _rational(value, path: str) -> Fraction:
    try:
        return parse_rational(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise SchemaError(path, f"not a rational: {value!r} ({exc})") from None


def _vector(value, n: int, path: str) -> list[Fraction]:
    if not isinstance(value, (list, tuple)):
        raise SchemaError(path, "expected a list")
    if len(value) != n:
        raise SchemaError(path, f"expected {n} entries, got {len(value)}")
    return [_rational(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _square(value, n: int, path: str) -> Matrix:
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(path, f"expected {n} rows")
    return Matrix([_vector(r, n, f"{path}[{p}]") for p, r in enumerate(value)])


def load_algebra(obj: dict, path: str = "algebra") -> StructureAlgebra:
    dim = _need(obj, "dim", path)
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError(f"{path}.dim", "must be a positive integer")
    basis = _need(obj, "basis", path)
    if not isinstance(basis, list) or len(basis) != dim:
        raise SchemaError(f"{path}.basis", f"expected {dim} labels")
    unit = _vector(_need(obj, "unit", path), dim, f"{path}.unit")
    mult_raw = _need(obj, "mult", path)
    if not isinstance(mult_raw, list) or len(mult_raw) != dim:
        raise SchemaError(f"{path}.mult", f"expected {dim} rows")
    mult = []
    for i, row in enumerate(mult_raw):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"{path}.mult[{i}]", f"expected {dim} entries")
        mult.append([_vector(v, dim, f"{path}.mult[{i}][{j}]") for j, v in enumerate(row)])
    return StructureAlgebra(basis, unit, mult, name=str(obj.get("name", "")))


def load_hopf(obj: dict, path: str = "hopf") -> HopfAlgebra:
    alg = load_algebra(obj, path)
    dim = alg.dim
    cop_raw = _need(obj, "coproduct", path)
    if not isinstance(cop_raw, list) or len(cop_raw) != dim:
        raise SchemaError(f"{path}.coproduct", f"expected {dim} entries")
    cop = []
    for i, mat in enumerate(cop_raw):
        if not isinstance(mat, list) or len(mat) != dim:
            raise SchemaError(f"{path}.coproduct[{i}]", f"expected {dim} rows")
        flat = []
        for p, row in enumerate(mat):
            flat.extend(_vector(row, dim, f"{path}.coproduct[{i}][{p}]"))
        cop.append(flat)
    counit = _vector(_need(obj, "counit", path), dim, f"{path}.counit")
    antipode = _square(_need(obj, "antipode", path), dim, f"{path}.antipode")
    if "antipode_inv" in obj:
        antipode_inv = _square(obj["antipode_inv"], dim, f"{path}.antipode_inv")
    else:
        try:
            antipode_inv = antipode.inverse()
        except ZeroDivisionError:
            # the antipode of a finite-dimensional Hopf algebra is bijective
            raise SchemaError(f"{path}.antipode", "singular matrix, so not an antipode") from None
    meta = _meta(obj.get("meta", {}), dim, f"{path}.meta")
    return HopfAlgebra(alg, cop, counit, antipode, antipode_inv, name=str(obj.get("name", "")), meta=meta)


# meta keys naming one basis element each; "pi_keep" names two
META_INDEX_KEYS = ("g", "h", "c", "x1", "x2")


def _meta(meta, dim: int, path: str) -> dict:
    """Check that every basis index in ``meta`` is an int in range(dim)."""
    if not isinstance(meta, dict):
        raise SchemaError(path, "expected an object")

    def index(value, where: str) -> int:
        if type(value) is not int or not 0 <= value < dim:
            raise SchemaError(where, f"expected a basis index in 0..{dim - 1}, got {value!r}")
        return value

    out = dict(meta)
    for key in META_INDEX_KEYS:
        if key in out:
            index(out[key], f"{path}.{key}")
    if "pi_keep" in out:
        pair = out["pi_keep"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{path}.pi_keep", "expected a pair of basis indices")
        out["pi_keep"] = tuple(index(v, f"{path}.pi_keep[{i}]") for i, v in enumerate(pair))
    return out


def builtin_hopf(name: str) -> HopfAlgebra:
    from .e2 import build_e2
    from .sweedler import build_dh4, build_h4, build_h4_dual

    table = {
        "H4": build_h4,
        "H4dual": build_h4_dual,
        "E2": build_e2,
        "DH4": lambda: build_dh4()[0],
    }
    if name not in table:
        raise SchemaError("hopf", f"unknown builtin Hopf algebra {name!r} (known: {sorted(table)})")
    return table[name]()


def load_yd(obj: dict, path: str = "yd") -> YDObject:
    alg = load_algebra(obj, path)
    hopf_field = _need(obj, "hopf", path)
    if isinstance(hopf_field, str):
        hopf = builtin_hopf(hopf_field)
    elif isinstance(hopf_field, dict):
        hopf = load_hopf(hopf_field, f"{path}.hopf")
    else:
        raise SchemaError(f"{path}.hopf", "expected a builtin name or an inline hopf object")
    action_raw = _need(obj, "action", path)
    if not isinstance(action_raw, list) or len(action_raw) != hopf.dim:
        raise SchemaError(f"{path}.action", f"expected {hopf.dim} rows (one per Hopf basis element)")
    action = []
    for i, row in enumerate(action_raw):
        if not isinstance(row, list) or len(row) != alg.dim:
            raise SchemaError(f"{path}.action[{i}]", f"expected {alg.dim} image vectors")
        cols = [_vector(v, alg.dim, f"{path}.action[{i}][{j}]") for j, v in enumerate(row)]
        action.append(Matrix.from_cols(cols))
    co_raw = _need(obj, "coaction", path)
    if not isinstance(co_raw, list) or len(co_raw) != alg.dim:
        raise SchemaError(f"{path}.coaction", f"expected {alg.dim} rows")
    coaction = []
    for j, row in enumerate(co_raw):
        if not isinstance(row, list) or len(row) != alg.dim:
            raise SchemaError(f"{path}.coaction[{j}]", f"expected {alg.dim} carrier components")
        flat = []
        for a, hvec in enumerate(row):
            flat.extend(_vector(hvec, hopf.dim, f"{path}.coaction[{j}][{a}]"))
        coaction.append(flat)
    return YDObject(hopf, alg.dim, alg, action, coaction)


def detect_kind(obj: dict) -> str:
    if "action" in obj and "coaction" in obj:
        return "yd"
    if "coproduct" in obj:
        return "hopf"
    return "algebra"


def load_definition(obj: dict):
    kind = detect_kind(obj)
    if kind == "yd":
        return kind, load_yd(obj)
    if kind == "hopf":
        return kind, load_hopf(obj)
    return kind, load_algebra(obj)


def validate_definition(obj: dict):
    """Load and run the matching axiom checker; returns (kind, object, report)."""
    kind, loaded = load_definition(obj)
    if kind == "yd":
        report = check_yd_algebra(loaded)
    elif kind == "hopf":
        report = check_hopf_axioms(loaded)
    else:
        report = check_algebra_axioms(loaded)
    return kind, loaded, report


# -- serialization ----------------------------------------------------------


def algebra_to_json(alg: StructureAlgebra) -> dict:
    return {
        "name": alg.name,
        "dim": alg.dim,
        "basis": list(alg.basis),
        "unit": [format_rational(x) for x in alg.unit],
        "mult": [
            [[format_rational(x) for x in alg.mult[i][j]] for j in range(alg.dim)]
            for i in range(alg.dim)
        ],
    }


def hopf_to_json(h: HopfAlgebra) -> dict:
    out = algebra_to_json(h.alg)
    out["name"] = h.name
    n = h.dim
    out["coproduct"] = [
        [[format_rational(h.cop[i][p * n + q]) for q in range(n)] for p in range(n)]
        for i in range(n)
    ]
    out["counit"] = [format_rational(x) for x in h.counit]
    out["antipode"] = [[format_rational(x) for x in row] for row in h.antipode.data]
    out["antipode_inv"] = [[format_rational(x) for x in row] for row in h.antipode_inv.data]
    return out


def yd_to_json(a: YDObject, hopf_name: str | None = None) -> dict:
    out = algebra_to_json(a.alg)
    out["hopf"] = hopf_name if hopf_name else hopf_to_json(a.hopf)
    out["action"] = [
        [[format_rational(x) for x in a.action[i].col(j)] for j in range(a.dim)]
        for i in range(a.hopf.dim)
    ]
    n = a.hopf.dim
    out["coaction"] = [
        [[format_rational(a.coaction[j][p * n + k]) for k in range(n)] for p in range(a.dim)]
        for j in range(a.dim)
    ]
    return out
