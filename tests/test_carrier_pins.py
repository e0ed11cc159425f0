"""Pinned digests of the structures the builders produce.

Each builder's output is dumped canonically (``defio.yd_to_json`` for an
object with product, action and coaction; the algebra, the action matrices
and the flat coaction rows otherwise) and hashed. A change to any builder
that moves a single structure constant, action entry or coaction entry, or
renames a basis element, changes its digest.
"""

import hashlib
import json
from fractions import Fraction as Q

import pytest

from hopfbrauer.defio import algebra_to_json, yd_to_json
from hopfbrauer.e2 import build_c_e2, witness_end_p, witness_p_module
from hopfbrauer.linalg import format_rational
from hopfbrauer.sweedler import (
    CFamilyDescriptor,
    aut_algebra,
    build_C,
    build_dh4,
    build_h4,
    build_h_alpha,
    build_sigma,
    cocycle_twist,
)
from hopfbrauer.yd import double_to_yd, end_yd, h_opposite, module_tensor, sharp_product, yd_to_double


def _digest(obj) -> str:
    alg = getattr(obj, "alg", None)
    action = getattr(obj, "action", None)
    coaction = getattr(obj, "coaction", None)
    if alg is not None and action is not None and coaction is not None:
        payload = yd_to_json(obj, hopf_name=obj.hopf.name)
    else:
        payload = {
            "hopf": obj.hopf.name,
            "dim": obj.dim,
            "alg": algebra_to_json(alg) if alg is not None else None,
            "action": None if action is None else [
                [[format_rational(x) for x in row] for row in m.data] for m in action
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
