"""Exact pins for the builders that multiply elements and for the JSON dumps.

T, θ_{λ,μ} and the D(H₄) relations are products of elements, and
``algebra_to_json``, ``hopf_to_json`` and ``yd_to_json`` write the stores
out as rationals. Each value below was taken while these builders still read
the Fraction mirrors of the integer stores (the dumps of the YD objects and
of H₄* while the dumps still read the dense views), and is compared with
``==``: the integer rows of each matrix, the sparse value of each relation,
and the sha256 of each JSON dump as ``json.dumps`` writes it, key order
included.
"""

import hashlib
import json
from fractions import Fraction as Q

import pytest

from hopfbrauer.defio import algebra_to_json, hopf_to_json, yd_to_json
from hopfbrauer.e2 import build_c_e2, build_e2, t_morphism, theta
from hopfbrauer.linalg import sparse_vec
from hopfbrauer.sweedler import CFamilyDescriptor, build_C, build_dh4, build_h4, build_h4_dual, dh4_relations

T_ROWS = [
    (2, {0: 1, 1: 1, 4: 1, 5: -1}),
    (2, {0: 1, 1: 1, 4: -1, 5: 1}),
    (2, {2: 1, 3: 1, 6: 1, 7: -1}),
    (2, {2: 1, 3: 1, 6: -1, 7: 1}),
    (2, {8: 1, 9: -1, 12: -1, 13: -1}),
    (2, {8: 1, 9: -1, 12: 1, 13: 1}),
    (2, {10: -1, 11: 1, 14: 1, 15: 1}),
    (2, {10: -1, 11: 1, 14: -1, 15: -1}),
]

THETA_ROWS = {
    (0, 0): [(1, {0: 1}), (1, {1: 1}), (1, {}), (1, {})],
    (0, Q(2, 3)): [(1, {0: 1}), (1, {1: 1}), (3, {4: 2}), (3, {5: 2})],
    (Q(-3, 2), 5): [(1, {0: 1}), (1, {1: 1}), (2, {2: -3, 4: 10}), (2, {3: -3, 5: 10})],
}

RELATIONS = [
    "(φ(h)⋈1)² = 0",
    "(φ(g)⋈1)² = ε⋈1",
    "φ(h)φ(g) + φ(g)φ(h) = 0",
    "(ε⋈h)² = 0",
    "hg + gh = 0",
    "(ε⋈g)² = ε⋈1",
    "φ(h)g + gφ(h) = 0",
    "φ(g)h + hφ(g) = 0",
    "gφ(g) − φ(g)g = 0",
    "φ(h)h − hφ(h) = φ(g) − g",
]

JSON_SHA256 = {
    ("H4", "algebra"): "3bc392bd862dd1b2bd05a74c7416575044ee4e8c0496171b98001e335f573865",
    ("H4", "hopf"): "7e7e439744c3f4f215edd86614ae69206e72c59392da2888c0327ff6b954ffa7",
    ("E2", "algebra"): "f7e337098c14430ad63f6f7942780034ab0286d6860d509bf8c3a6acd05ad31c",
    ("E2", "hopf"): "9ed4fbed35931475df28aa582d1f27bc9177f5bf3e5dd1e58ab6e8ca38fc63c7",
    ("DH4", "algebra"): "9848d96217684f7700bf77cb7d7b70f7ca96c3b2be50d2e9dd0aae0dee890644",
    ("DH4", "hopf"): "09575d9ecc99e64091ecd475706ff7d2af859e765a325a45e34034cdee3e5e8a",
}

HOPF = {"H4": build_h4, "E2": build_e2, "DH4": lambda: build_dh4()[0]}

# the dumps that read a YD object's action and coaction and H₄*'s antipode
EDGE_SHA256 = {
    "C(3;2,5) over H4": "972d01aee71d7f012b632cce8caeec09c1d1be62cd27a3ee2130d4d7130fc904",
    "C(1;0,2) inline": "e1894c30efdaae625933f598620b3d8d456a0b7cbbba045c2e7e9c1668c2a5d1",
    "C_E2(1,2,3) over E2": "0ed75607a483a1be487add85fd83a383301e0b362c5cab2ed2b3d3c6b3abb2d0",
    "H4dual": "7ff6fd3a8b8d788e48c34b22d35203bb089ef7458a4a5183762872071a6c7c27",
}

EDGE_DUMPS = {
    "C(3;2,5) over H4": lambda: yd_to_json(build_C(CFamilyDescriptor(Q(3), Q(2), Q(5))), hopf_name="H4"),
    "C(1;0,2) inline": lambda: yd_to_json(build_C(CFamilyDescriptor(Q(1), Q(0), Q(2)))),
    "C_E2(1,2,3) over E2": lambda: yd_to_json(build_c_e2(1, 2, 3), hopf_name="E2"),
    "H4dual": lambda: hopf_to_json(build_h4_dual()),
}


def test_t_morphism_rows_are_pinned():
    assert t_morphism().matrix.int_rows == T_ROWS


@pytest.mark.parametrize("lam, mu", sorted(THETA_ROWS))
def test_theta_rows_are_pinned(lam, mu):
    assert theta(lam, mu).matrix.int_rows == THETA_ROWS[lam, mu]


def test_dh4_relations_are_pinned():
    assert [(label, sparse_vec(value)) for label, value in dh4_relations()] == [(label, {}) for label in RELATIONS]


@pytest.mark.parametrize("name, kind", sorted(JSON_SHA256))
def test_json_dump_is_pinned(name, kind):
    h = HOPF[name]()
    payload = algebra_to_json(h.alg) if kind == "algebra" else hopf_to_json(h)
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == JSON_SHA256[name, kind]


@pytest.mark.parametrize("label", sorted(EDGE_SHA256))
def test_yd_and_dual_dumps_are_pinned(label):
    payload = EDGE_DUMPS[label]()
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == EDGE_SHA256[label]
