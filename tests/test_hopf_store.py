"""The integer store of ``HopfAlgebra`` and the builders that write it.

A Hopf algebra keeps Δ as ``int_cop`` = (D_Δ, integer (p, q, c) rows) and S,
S⁻¹ as ``int_s``, ``int_s_inv`` = (D, integer {k: c} columns), each over its
least common denominator; ``HopfAlgebra.from_int`` validates, sorts and
divides by the gcd, and the dense constructor scales once and calls it. ``build_h4``, ``build_e2``, ``dual_hopf`` and ``drinfeld_double``
write integer terms. Each builder's store and its Fraction readings
(conftest's ``cop_sparse`` and ``s_cols``) are pinned by the sha256 of a
canonical dump made with the earlier Fraction-first store (the integer tables
were then rescaled from the Fraction mirrors ``HopfAlgebra.cop_sparse``,
``s_cols`` and ``s_inv_cols``, since deleted), including a dual and a double of H₄ on a rescaled basis,
whose stores have scales 120, 15 and 240, 60.
"""

import hashlib
import json
from fractions import Fraction as Q

import pytest

from conftest import cop_sparse, counit_vec, dense_hopf, diag, fraction_cop, s_cols, s_matrix
from test_integer_scaling import H4_SCALES, _rescaled_hopf

from hopfbrauer.algebra import StructureAlgebra
from hopfbrauer.defio import SchemaError, hopf_to_json, load_hopf
from hopfbrauer.e2 import build_e2
from hopfbrauer.hopf import HopfAlgebra, check_hopf_axioms, drinfeld_double, dual_hopf
from hopfbrauer.linalg import format_rational, scaled_rows, scaled_vecs
from hopfbrauer.sweedler import build_h4


def _store_sha256(h) -> str:
    (dd, cop), (ds, s), (dt, t) = h.int_cop, h.int_s, h.int_s_inv
    f = format_rational
    obj = {
        "int_cop": [dd, [list(map(list, row)) for row in cop]],
        "int_s": [ds, [list(col.items()) for col in s]],
        "int_s_inv": [dt, [list(col.items()) for col in t]],
        "cop": [[[p, q, f(c)] for p, q, c in cop_sparse(h, i)] for i in range(h.dim)],
        "s_cols": [[[k, f(c)] for k, c in col.items()] for col in s_cols(h)],
        "s_inv_cols": [[[k, f(c)] for k, c in col.items()] for col in s_cols(h, inverse=True)],
        "counit": [f(c) for c in counit_vec(h)],
    }
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _rescaled_h4():
    return _rescaled_hopf(build_h4(), H4_SCALES)


STORE_PINS = {
    "H4": (build_h4, "c9fd1657bb6ad7a277a5a976d9b3781eadc8af7229d93ebcce18682d023e2afb"),
    "E2": (build_e2, "b9d6d44be3c993b89c44aef07d38e42ee89252bbe6924536243689719c1e85da"),
    "H4*": (lambda: dual_hopf(build_h4()), "8fb7b4aa7b6cbf9f51ababeaa8c3abc1f7ad04290068aa77ef26421c8cf025cf"),
    "E2*": (lambda: dual_hopf(build_e2()), "8a5fefd611fb0fbf4e3852b06b4db4ac4899423aedde58eb7ab493c4c630edd4"),
    "D(H4)": (lambda: drinfeld_double(build_h4())[0],
              "f5f0bfeacecb84c34f48b8dc7695ba9b5bf5289ddfa676e811de359ef5c59115"),
    "D(E2)": (lambda: drinfeld_double(build_e2())[0],
              "24cfc4b5a20c652030d98b8a6d3b030b797ebe190be6274096c0ec4be4985d2d"),
    "H4'*": (lambda: dual_hopf(_rescaled_h4()), "432f076eb91c7484e32ca61b0ff80381fce3af8fe2ef0163083930c53790a3be"),
    "D(H4')": (lambda: drinfeld_double(_rescaled_h4())[0],
               "dbbb7c5337422be1eacbf3bdf387de0368b4597f5baf4b0074975071fcedb03c"),
}


@pytest.mark.parametrize("name", STORE_PINS)
def test_builder_store_is_pinned(name):
    build, digest = STORE_PINS[name]
    h = build()
    assert _store_sha256(h) == digest
    # the store is the canonical rescaling of its own Fraction readings
    assert h.int_cop == scaled_rows(fraction_cop(h))
    assert h.int_s == scaled_vecs(s_cols(h)) and h.int_s_inv == scaled_vecs(s_cols(h, inverse=True))


def test_rescaled_stores_are_reduced():
    dual, double = dual_hopf(_rescaled_h4()), drinfeld_double(_rescaled_h4())[0]
    assert (dual.int_cop[0], dual.int_s[0], dual.int_s_inv[0]) == (120, 15, 15)
    assert (double.int_cop[0], double.int_s[0], double.int_s_inv[0]) == (240, 60, 60)


KZ2 = StructureAlgebra.from_int(["1", "g"], (1, {0: 1}), [[[(0, 1)], [(1, 1)]], [[(1, 1)], [(0, 1)]]], 1, name="kZ2")
KZ2_S = (1, [{0: 1}, {1: 1}])


def _kz2(cop=(1, [[(0, 0, 1)], [(1, 1, 1)]]), s=KZ2_S, s_inv=KZ2_S, counit=(1, {0: 1, 1: 1})):
    return HopfAlgebra.from_int(KZ2, cop, counit, s, s_inv)


def test_from_int_sorts_and_divides_by_the_gcd():
    # Δ(g) = (g⊗1 + 1⊗g)/2 written unsorted over 12, every c divisible by 6
    h = _kz2(cop=(12, [[(0, 0, 12)], [(1, 0, 6), (0, 1, 6)]]), s=(4, [{0: 4}, {1: -4}]), s_inv=(2, [{0: 2}, {1: -2}]))
    assert h.int_cop == (2, [((0, 0, 2),), ((0, 1, 1), (1, 0, 1))])
    assert h.int_s == (1, [{0: 1}, {1: -1}]) and h.int_s_inv == h.int_s
    assert cop_sparse(h, 1) == ((0, 1, Q(1, 2)), (1, 0, Q(1, 2)))
    assert s_cols(h) == [{0: 1}, {1: -1}] and s_matrix(h, inverse=True) == diag([1, -1])
    unsorted = _kz2(s=(3, [{0: 3}, {1: 6, 0: 3}]))
    assert unsorted.int_s == (1, [{0: 1}, {0: 1, 1: 2}]) and list(unsorted.int_s[1][1]) == [0, 1]
    # the same rationals scaled once into from_int, and through the dense constructor
    cop = scaled_rows([[(0, 0, 1)], [(1, 0, Q(1, 2)), (0, 1, Q(1, 2))]])
    sparse = HopfAlgebra.from_int(KZ2, cop, (1, {0: 1, 1: 1}), *[scaled_vecs([{0: 1}, {1: -1}])] * 2)
    dense = dense_hopf(KZ2, [[1, 0, 0, 0], [0, Q(1, 2), Q(1, 2), 0]], [1, 1], diag([1, -1]))
    for other in (sparse, dense):
        assert (other.int_cop, other.int_s, other.int_s_inv) == (h.int_cop, h.int_s, h.int_s_inv)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(cop=(1, [[(0, 0, 1)], [(True, 1, 1)]])), "not in range"),
        (dict(cop=(1, [[(0, 0, 1)], [(1, False, 1)]])), "not in range"),
        (dict(cop=(1, [[(0, 0, 1)], [(1, 1, 0)]])), "nonzero int"),
        (dict(cop=(1, [[(0, 0, 1)], [(1, 1, Q(1))]])), "nonzero int"),
        (dict(cop=(1, [[(0, 0, 1)], [(1, 1, 1.0)]])), "nonzero int"),
        (dict(cop=(1, [[(0, 0, 1)], [(1, 1, 1), (1, 1, 2)]])), "twice"),
        (dict(cop=(1, [[(0, 0, 1)], [(1, 2, 1)]])), "not in range"),
        (dict(cop=(1, [[(0, 0, 1)], [(2, 0, 1)]])), "not in range"),
        (dict(cop=(1, [[(0, 0, 1)], [(-1, 1, 1)]])), "not in range"),
        (dict(cop=(1, [[(0, 0, 1)]])), "wrong length"),
        (dict(cop=(0, [[(0, 0, 1)], [(1, 1, 1)]])), "scale"),
        (dict(cop=(-2, [[(0, 0, 1)], [(1, 1, 1)]])), "scale"),
        (dict(s=(0, KZ2_S[1])), "scale"),
        (dict(s_inv=(-1, KZ2_S[1])), "scale"),
        (dict(s=(1, [{0: 1}])), "expected 2×2"),
        (dict(s_inv=(1, [{0: 1}, {1: 1}, {0: 1}])), "expected 2×2"),
        (dict(s=(1, [{0: 1}, {2: 1}])), "not in range"),
        (dict(s=(1, [{0: 1}, {True: 1}])), "not in range"),
        (dict(s=(1, [{0: 1}, {1: 0}])), "nonzero int"),
        (dict(counit=(1,)), "counit"),
    ],
)
def test_from_int_rejects_a_bad_table(kwargs, message):
    with pytest.raises(ValueError, match=message):
        _kz2(**kwargs)


def test_from_int_inverts_the_antipode_when_no_inverse_is_given():
    # from_int always takes S⁻¹; the one input that may leave it out is a
    # definition file, and its loader inverts S
    h4 = build_h4()
    with pytest.raises(TypeError):
        HopfAlgebra.from_int(h4.alg, h4.int_cop, h4.int_counit, h4.int_s)
    obj = {k: v for k, v in hopf_to_json(h4).items() if k != "antipode_inv"}
    h = load_hopf(obj)
    assert h.int_s_inv == h4.int_s_inv and check_hopf_axioms(h).ok
    obj["antipode"] = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0"] * 4, ["0"] * 4]
    with pytest.raises(SchemaError, match="^hopf.antipode: singular matrix, so not an antipode$"):
        load_hopf(obj)
