"""JSON definition files for algebras, Hopf algebras and YD module algebras.

This module is the package's one rational edge. A loader parses and
shape-checks every rational of a file once, scales each table by the least
common denominator of its entries and hands the integers to the carrier's
``from_int``; a dump formats the integer stores back as rationals.
Rationals are serialized as "p/q" or "p" strings everywhere. The schemas
(see README for examples):

  algebra:  {"dim", "basis", "unit", "mult"}
            mult[i][j] is the coefficient vector of e_i·e_j.
  hopf:     algebra keys plus {"coproduct", "counit", "antipode"} and
            the optional "antipode_inv" (S inverted when it is absent) and
            "meta" (named basis indices); coproduct[i] is a dim×dim matrix
            with entry [p][q] the coefficient of e_p⊗e_q in Δ(e_i).
  yd:       algebra keys plus {"hopf": <builtin name or inline hopf>,
            "action", "coaction"}; action[i][j] is the image vector of
            e_i^H·e_j^A, coaction[j][a] is the H-coefficient vector of the
            e_a-component of ρ(e_j).

A file with any of the five Hopf keys is a hopf file, and one with any of
the three YD keys a yd file; each needs its required keys, and a file with
keys of both kinds is refused.

Builtin Hopf names: H4, H4dual, E2, DH4.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import StructureAlgebra, check_algebra_axioms
from .hopf import HopfAlgebra, check_hopf_axioms
from .linalg import (
    IntVec,
    Matrix,
    SparseVec,
    dense_vec,
    format_rational,
    over,
    parse_rational,
    scaled,
    scaled_rows,
    scaled_vecs,
    sparse_vec,
)
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


def _sparse(value, n: int, path: str) -> SparseVec:
    """The n rationals of ``value`` as a sparse vector."""
    return sparse_vec(_vector(value, n, path))


def _list(value, n: int, path: str, what: str) -> list:
    """``value``, a list of n ``what``."""
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(path, f"expected {n} {what}")
    return value


def _square(value, n: int, path: str) -> Matrix:
    return Matrix([_vector(r, n, f"{path}[{p}]") for p, r in enumerate(_list(value, n, path, "rows"))])


def load_algebra(obj: dict, path: str = "algebra") -> StructureAlgebra:
    dim = _need(obj, "dim", path)
    if type(dim) is not int or dim < 1:
        raise SchemaError(f"{path}.dim", "must be a positive integer")
    basis = _need(obj, "basis", path)
    if not isinstance(basis, list) or len(basis) != dim:
        raise SchemaError(f"{path}.basis", f"expected {dim} labels")
    unit, den_u = scaled(_sparse(_need(obj, "unit", path), dim, f"{path}.unit"))
    den, cells = scaled_rows(
        _sparse(v, dim, f"{path}.mult[{i}][{j}]").items()
        for i, row in enumerate(_list(_need(obj, "mult", path), dim, f"{path}.mult", "rows"))
        for j, v in enumerate(_list(row, dim, f"{path}.mult[{i}]", "entries"))
    )
    table = [cells[i * dim:(i + 1) * dim] for i in range(dim)]
    return StructureAlgebra.from_int(basis, (den_u, unit), table, den, name=str(obj.get("name", "")))


def load_hopf(obj: dict, path: str = "hopf") -> HopfAlgebra:
    alg = load_algebra(obj, path)
    dim = alg.dim
    cop = scaled_rows(
        [
            (p, q, c)
            for p, row in enumerate(_list(mat, dim, f"{path}.coproduct[{i}]", "rows"))
            for q, c in _sparse(row, dim, f"{path}.coproduct[{i}][{p}]").items()
        ]
        for i, mat in enumerate(_list(_need(obj, "coproduct", path), dim, f"{path}.coproduct", "entries"))
    )
    counit, den_e = scaled(_sparse(_need(obj, "counit", path), dim, f"{path}.counit"))
    antipode = _square(_need(obj, "antipode", path), dim, f"{path}.antipode")
    antipode_inv = _square(obj["antipode_inv"], dim, f"{path}.antipode_inv") if "antipode_inv" in obj else None
    meta = _meta(obj.get("meta", {}), dim, f"{path}.meta")
    if antipode_inv is None:
        try:
            antipode_inv = antipode.inverse()
        except ZeroDivisionError:
            # a finite-dimensional antipode is bijective
            raise SchemaError(f"{path}.antipode", "singular matrix, so not an antipode") from None
    return HopfAlgebra.from_int(alg, cop, (den_e, counit), antipode.scaled_cols(), antipode_inv.scaled_cols(),
                                name=str(obj.get("name", "")), meta=meta)


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


# the fields that make a file a YD file, each of them required there
YD_FIELDS = ("hopf", "action", "coaction")


def load_yd(obj: dict, path: str = "yd") -> YDObject:
    hopf_field, rows, coaction = (_need(obj, key, path) for key in YD_FIELDS)
    alg = load_algebra(obj, path)
    if isinstance(hopf_field, str):
        hopf = builtin_hopf(hopf_field)
    elif isinstance(hopf_field, dict):
        hopf = load_hopf(hopf_field, f"{path}.hopf")
    else:
        raise SchemaError(f"{path}.hopf", "expected a builtin name or an inline hopf object")
    n, dim = hopf.dim, alg.dim
    action = []
    for i, row in enumerate(_list(rows, n, f"{path}.action", "rows (one per Hopf basis element)")):
        row = _list(row, dim, f"{path}.action[{i}]", "image vectors")
        action.append([_sparse(v, dim, f"{path}.action[{i}][{j}]") for j, v in enumerate(row)])
    # images[j][i] = e_i·e_j, so the store is the transpose of the file's table
    den, cells = scaled_vecs(v for col in zip(*action) for v in col)
    rho = scaled_rows(
        [
            (a, k, c)
            for a, hvec in enumerate(_list(row, dim, f"{path}.coaction[{j}]", "carrier components"))
            for k, c in _sparse(hvec, n, f"{path}.coaction[{j}][{a}]").items()
        ]
        for j, row in enumerate(_list(coaction, dim, f"{path}.coaction", "rows"))
    )
    return YDObject.from_int(hopf, dim, alg, (den, [cells[j * n:(j + 1) * n] for j in range(dim)]), rho)


# the fields that ``load_hopf`` reads beyond the algebra's, the last two
# optional; any of them makes a file a Hopf file
HOPF_FIELDS = ("coproduct", "counit", "antipode", "antipode_inv", "meta")


def detect_kind(obj: dict) -> str:
    """"yd" for a file with any of ``YD_FIELDS``, "hopf" for one with any of
    ``HOPF_FIELDS``, else "algebra"; a file with both is refused."""
    yd = [key for key in YD_FIELDS if key in obj]
    hopf = [key for key in HOPF_FIELDS if key in obj]
    if yd and hopf:
        raise SchemaError("definition", f"'{hopf[0]}' and the YD field '{yd[0]}' in one file")
    return "yd" if yd else "hopf" if hopf else "algebra"


def load_definition(obj: dict):
    if not isinstance(obj, dict):
        raise SchemaError("definition", f"expected a JSON object, got {obj!r}")
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


def _formatted(v: IntVec, den: int, n: int) -> list[str]:
    """The n entries of v/den as rationals."""
    return [format_rational(x) for x in dense_vec(over(v, den), n)]


def algebra_to_json(alg: StructureAlgebra) -> dict:
    n = alg.dim
    (den_u, unit), (den, table) = alg.int_unit, alg.int_sp
    return {
        "name": alg.name,
        "dim": alg.dim,
        "basis": list(alg.basis),
        "unit": _formatted(unit, den_u, n),
        "mult": [[_formatted(dict(t), den, n) for t in row] for row in table],
    }


def hopf_to_json(h: HopfAlgebra) -> dict:
    out = algebra_to_json(h.alg)
    out["name"] = h.name
    n = h.dim
    den, rows = h.int_cop
    out["coproduct"] = [[_formatted({q: c for p, q, c in row if p == r}, den, n) for r in range(n)] for row in rows]
    out["counit"] = _formatted(h.int_counit[1], h.int_counit[0], n)
    # S[p][q] is entry p of the column S(e_q)
    for key, (den, cols) in (("antipode", h.int_s), ("antipode_inv", h.int_s_inv)):
        out[key] = [list(row) for row in zip(*(_formatted(col, den, n) for col in cols))]
    return out


def yd_to_json(a: YDObject, hopf_name: str | None = None) -> dict:
    """The yd file of ``a``, which needs a product, an action and a coaction."""
    stores = (("product", a.alg), ("action", a.int_images), ("coaction", a.int_rho))
    missing = [what for what, store in stores if store is None]
    if missing:
        raise ValueError(f"yd_to_json: the object has no {' and no '.join(missing)}")
    out = algebra_to_json(a.alg)
    out["hopf"] = hopf_name if hopf_name else hopf_to_json(a.hopf)
    den, rows = a.int_images
    out["action"] = [[_formatted(row[i], den, a.dim) for row in rows] for i in range(a.hopf.dim)]
    den, rows = a.int_rho
    out["coaction"] = [
        [_formatted({k: c for b, k, c in row if b == p}, den, a.hopf.dim) for p in range(a.dim)] for row in rows
    ]
    return out
