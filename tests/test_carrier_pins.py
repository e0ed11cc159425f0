"""Pinned digests of the structures the builders produce.

Each builder's output is dumped canonically (``defio.yd_to_json`` for an
object with product, action and coaction; the algebra, the action matrices
and the flat coaction rows otherwise) and hashed. A change to any builder
that moves a single structure constant, action entry or coaction entry, or
renames a basis element, changes its digest. Each builder's output also
round-trips between its integer store and the dense action and coaction
the tests read from it (``tests/conftest.py``), and the store is in
canonical form.

A second table pins the outputs of every builder that multiplies elements
rather than basis vectors: E(2)'s coproduct and antipode columns, the maps T
and θ_{λ,μ}, two quaternion presentations, the D(H₄) relation values and
two sandwich matrices.
"""

import hashlib
import json
from fractions import Fraction as Q

import pytest
from conftest import (
    action_matrices,
    coaction_rows,
    column,
    cop_sparse,
    dense,
    dense_yd,
    s_matrix,
    sparse_yd,
    yd_images,
    yd_rho,
)

from hopfbrauer.algebra import sandwich_matrix
from hopfbrauer.defio import algebra_to_json, yd_to_json
from hopfbrauer.e2 import build_c_e2, build_e2, t_morphism, theta, witness_end_p, witness_p_module
from hopfbrauer.linalg import format_rational
from hopfbrauer.sweedler import (
    CFamilyDescriptor,
    aut_algebra,
    build_C,
    build_dh4,
    build_h4,
    build_h_alpha,
    build_sigma,
    c_product,
    cocycle_twist,
    dh4_relations,
    quaternion_yd_algebra,
)
from hopfbrauer.yd import double_to_yd, end_yd, h_opposite, module_tensor, sharp_product, yd_to_double


def _digest(obj) -> str:
    alg = getattr(obj, "alg", None)
    action, coaction = action_matrices(obj), coaction_rows(obj)
    if alg is not None and action is not None and coaction is not None:
        payload = yd_to_json(obj, hopf_name=obj.hopf.name)
    else:
        payload = {
            "hopf": obj.hopf.name,
            "dim": obj.dim,
            "alg": algebra_to_json(alg) if alg is not None else None,
            "action": None if action is None else [
                [[format_rational(x) for x in row] for row in dense(m)] for m in action
            ],
            "coaction": None if coaction is None else [
                [format_rational(x) for x in row] for row in coaction
            ],
        }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


D1 = CFamilyDescriptor(Q(3), Q(2), Q(5))
D2 = CFamilyDescriptor(Q(-1, 2), Q(7, 3), Q(0))
D3 = CFamilyDescriptor(Q(4), Q(0), Q(-3, 4))


def _tower():
    return sharp_product(sharp_product(build_C(D1), build_C(D2)), build_C(D3))


BUILDERS = {
    "build_C(3;2,5)": lambda: build_C(D1),
    "build_C(-1/2;7/3,0)": lambda: build_C(D2),
    "build_C(4;0,-3/4)": lambda: build_C(D3),
    "sharp_product d=8": _tower,
    "h_opposite d=8": lambda: h_opposite(_tower()),
    "aut_algebra(5/2)": lambda: aut_algebra(Q(5, 2)),
    "end_yd(C, op)": lambda: end_yd(build_C(D1), "op"),
    "end_yd(H_alpha, op)": lambda: end_yd(build_h_alpha(Q(-2, 3)), "op"),
    "build_c_e2(2;3,-1)": lambda: build_c_e2(2, 3, -1),
    "witness_end_p": witness_end_p,
    "cocycle_twist": lambda: cocycle_twist(build_C(D1), build_sigma(Q(3, 2))),
    "yd_to_double(C)": lambda: yd_to_double(build_C(D1), build_dh4()[0]),
    "double_to_yd(yd_to_double(C))": lambda: double_to_yd(yd_to_double(build_C(D1), build_dh4()[0]), build_h4()),
    "module_tensor(P, P)": lambda: module_tensor(witness_p_module(), witness_p_module()),
}

# sha256 of each canonical dump, computed before the five carrier classes
# were merged into one
PINNED = {
    "build_C(3;2,5)": "9faaaa6e2d207c6abd5e4c946015f37e0be36289dda6fd827b3b7d9a128ebf26",
    "build_C(-1/2;7/3,0)": "a8d1b9e18ad310d0bf179712b02faf838c1c2049c5f28353d7a4985894a03b70",
    "build_C(4;0,-3/4)": "5e10412749939bf1c5fb6b74728993e565964f72227ccad162870617da56d191",
    "sharp_product d=8": "58159f9dc832658b46c664b65e402e300f342c047f746c47d9bda56b1cbeb61c",
    "h_opposite d=8": "d7186e988e74ade513a05b9206f6683174776de8d829c4d601654a6e47d65647",
    "aut_algebra(5/2)": "d7451de8d1ecd7bc4ebc9d65573696b3161a0fa85b36ea7a3eb50c68436a8a61",
    "end_yd(C, op)": "66339d45c33df6abd53d655a13ebd114312f8cd95a0b1e1cdb687d758bd0febf",
    "end_yd(H_alpha, op)": "5015557fbea42cdc43094e9abbbab0440ada5d2c3911457d0776a311b9427563",
    "build_c_e2(2;3,-1)": "a9a386fd2923905086404f658d8a9619a0e374b5fb3e4198bb0419c9a71dae25",
    "witness_end_p": "05390122779be692e3fa463b0b6684e3654ebfe70357cdc9d5d242537e4a4446",
    "cocycle_twist": "9d9647dcca75334787c246e69ea4330bc3d7b4695ec94dbead0babf5870c0b7a",
    "yd_to_double(C)": "25dc8c0ff7dc1580067bd566497d4766bca38cc5848d1d277bf210508ee86cd6",
    "double_to_yd(yd_to_double(C))": "9faaaa6e2d207c6abd5e4c946015f37e0be36289dda6fd827b3b7d9a128ebf26",
    "module_tensor(P, P)": "8227b17ec53c123d5338e0c110c01e1a7b8376fb46baf4f5427cc43ce609dd5d",
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_output_is_pinned(name):
    assert _digest(BUILDERS[name]()) == PINNED[name]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_dense_and_sparse_forms_round_trip(name):
    obj = BUILDERS[name]()
    dense = dense_yd(obj.hopf, obj.dim, obj.alg, action_matrices(obj), coaction_rows(obj))
    assert (yd_images(dense), yd_rho(dense)) == (yd_images(obj), yd_rho(obj))
    assert (action_matrices(dense), coaction_rows(dense)) == (action_matrices(obj), coaction_rows(obj))
    images = None if yd_images(obj) is None else [[dict(reversed(v.items())) for v in row] for row in yd_images(obj)]
    rho = None if yd_rho(obj) is None else [list(reversed(row)) for row in yd_rho(obj)]
    fresh = sparse_yd(obj.hopf, obj.dim, obj.alg, images, rho)
    for a in (obj, dense, fresh):
        # the canonical form: keys and triples sorted, every coefficient a nonzero Fraction
        for row in yd_images(a) or []:
            assert all(list(v) == sorted(v) and all(type(c) is Q and c for c in v.values()) for v in row)
        for row in yd_rho(a) or []:
            assert list(row) == sorted(row) and all(type(c) is Q and c for *_, c in row)
    assert fresh.same_structure(obj) and (yd_images(fresh), yd_rho(fresh)) == (yd_images(obj), yd_rho(obj))
    assert _digest(fresh) == PINNED[name]


def _sha256_of(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _matrix_dump(m) -> list:
    return [[format_rational(v) for v in row] for row in dense(m)]


def _e2_dump():
    e2 = build_e2()
    return {
        "coproduct": [[[p, q, format_rational(c)] for p, q, c in cop_sparse(e2, i)] for i in range(e2.dim)],
        "antipode": [[format_rational(v) for v in column(s_matrix(e2), j)] for j in range(e2.dim)],
    }


# the d = 8 rung of the seed-7 azumaya_ladder (test_verdict_pins.TOWER[:3])
SEED7_TOWER = [
    CFamilyDescriptor(Q(2, 3), Q(1), Q(-1)),
    CFamilyDescriptor(Q(-7, 9), Q(1, 2), Q(-4)),
    CFamilyDescriptor(Q(5, 2), Q(7, 8), Q(-6)),
]


def _seed7_tower():
    rung = build_C(SEED7_TOWER[0])
    for factor in SEED7_TOWER[1:]:
        rung = sharp_product(rung, build_C(factor))
    return rung


def _quaternion(d1, d2):
    return quaternion_yd_algebra(c_product(d1, d2))


PRODUCT_DUMPS = {
    "build_e2": _e2_dump,
    "t_morphism": lambda: _matrix_dump(t_morphism().matrix),
    "theta(1,0)": lambda: _matrix_dump(theta(1, 0).matrix),
    "theta(0,1)": lambda: _matrix_dump(theta(0, 1).matrix),
    "theta(-3/2,5)": lambda: _matrix_dump(theta(Q(-3, 2), 5).matrix),
    "quaternion c_product(D1, D2)": lambda: yd_to_json(_quaternion(D1, D2), hopf_name="H4"),
    "quaternion c_product(D3, D1)": lambda: yd_to_json(_quaternion(D3, D1), hopf_name="H4"),
    "dh4_relations": lambda: [[label, [format_rational(v) for v in val]] for label, val in dh4_relations()],
    "sandwich seed-7 tower d=8": lambda: _matrix_dump(sandwich_matrix(_seed7_tower().alg)),
    "sandwich quaternion c_product(D1, D2)": lambda: _matrix_dump(sandwich_matrix(_quaternion(D1, D2).alg)),
}

# sha256 of each canonical dump, computed while every one of these products
# still went through the dense ``mul_vec``
PINNED_PRODUCTS = {
    "build_e2": "765725b855ab9861861bf7ffe43979871ddfd2df2ab13aa9bb2a53385066d0f6",
    "dh4_relations": "3b6892ad014884451caf619ead6cf0a51a0171e36401f66f67d2f16f964ca17a",
    "quaternion c_product(D1, D2)": "97756726672dbf3cb63ecca93819cc9df228934701a128f8163756369a417799",
    "quaternion c_product(D3, D1)": "dcdf611b0df7bc45878300a83569e841f5f38e63862f464f6b697897d336d4f6",
    "sandwich quaternion c_product(D1, D2)": "0d6823e26d654cd95595b72a68428570d6bf391b11425ed8c766b148cc9b85c4",
    "sandwich seed-7 tower d=8": "ab38f80638b793525797357bcce20ee3e2dce53e5299a8f37f250dba29053b7e",
    "t_morphism": "0dee7735e3b1b3e605593a4ebf08c36aea5d6b98ea5fe1225e304e1f759a01b1",
    "theta(-3/2,5)": "084f4020bea1d615e6b9edc3e9de6d672f48b90254645e934a1703ac57f941cd",
    "theta(0,1)": "03f6d1a905cde5aa72484f0871588f7f6a845759072d63cf14379d8787f9eaa0",
    "theta(1,0)": "bd64c3456531cbea94cc832c6ab7d943a17b2cebfaa7097eb1770280a98d4f48",
}


@pytest.mark.parametrize("name", sorted(PRODUCT_DUMPS))
def test_product_dump_is_pinned(name):
    assert _sha256_of(PRODUCT_DUMPS[name]()) == PINNED_PRODUCTS[name]
