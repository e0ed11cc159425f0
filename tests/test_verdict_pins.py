"""Pinned inputs and outputs of the H-Azumaya verdict.

The verdict reads det F and det G off the matrices ``fg_maps`` builds. The
digests below pin canonical dumps of F and G, and the exact determinants,
for the largest rung of the benchmark ladder (the d = 16 tower of seed 7)
and for A_α at the ladder's α = 5. A second test checks that F and G
evaluated by ``FGContraction`` on arbitrary sparse vectors, as
``e2.fg_decomposition_residuals`` evaluates them, are the column
combinations of ``fg_maps`` that bilinearity demands. A third pins F₀ and
G₀, and the graded-central-simplicity verdict, on objects over E(2).
"""

import functools
import hashlib
import json
import random
from fractions import Fraction as Q

import pytest

from hopfbrauer.e2 import build_c_e2, f0_g0_matrices, is_graded_central_simple, not_subgroup_demo, witness_end_p
from hopfbrauer.linalg import format_rational, mat_det
from hopfbrauer.sweedler import CFamilyDescriptor, aut_algebra, build_C
from hopfbrauer.yd import FGContraction, fg_maps, sharp_product

# the four C(a;t,s) factors the seed-7 azumaya_ladder draws for d = 2, 4, 8, 16
TOWER = [
    CFamilyDescriptor(Q(2, 3), Q(1), Q(-1)),
    CFamilyDescriptor(Q(-7, 9), Q(1, 2), Q(-4)),
    CFamilyDescriptor(Q(5, 2), Q(7, 8), Q(-6)),
    CFamilyDescriptor(Q(-5, 8), Q(-7, 3), Q(9, 8)),
]


@functools.lru_cache(maxsize=None)
def _verdict_input(name):
    if name == "tower d=16":
        rung = build_C(TOWER[0])
        for factor in TOWER[1:]:
            rung = sharp_product(rung, build_C(factor))
        return rung
    return aut_algebra(Q(5))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fg_dump_sha256(f, g, keys=("F", "G")):
    dump = {key: [[format_rational(v) for v in row] for row in m.data] for key, m in zip(keys, (f, g))}
    return _sha256(json.dumps(dump))


# computed before the integer-row determinant and the hoisted F table
PINNED_FG = {
    "tower d=16": "de30400bd7dce85f9d51ed55ca4ee713a30631cc4b030a3a46bbe6b125f71850",
    "aut_algebra(5)": "8c12b096165fc7bb2e76825c1fcc47f3bd86820ae2f6a9265f5d6645d3867652",
}
# det F = det G for both inputs; the tower's 748-digit value is pinned by its sha256
TOWER_DET_SHA256 = "0ec9c4d8f210c95f84eeb533b24ff87c853edd1e265de6380bf55ef54eae0a3b"
AUT_DET = "293873587705571876992184134305561419454666389193021880377187926569604314863681793212890625"


@pytest.mark.parametrize("name", sorted(PINNED_FG))
def test_fg_maps_and_dets_are_pinned(name):
    f, g = fg_maps(_verdict_input(name))
    assert _fg_dump_sha256(f, g) == PINNED_FG[name]
    det_f, det_g = str(mat_det(f)), str(mat_det(g))
    if name == "tower d=16":
        assert (_sha256(det_f), _sha256(det_g)) == (TOWER_DET_SHA256, TOWER_DET_SHA256)
    else:
        assert (det_f, det_g) == (AUT_DET, AUT_DET)


E2_PARAMS = {
    "C(2;3,-1)": (2, 3, -1),
    "C(1/2;0,5)": (Q(1, 2), 0, 5),
    "C(-3;2/7,-1/4)": (-3, Q(2, 7), Q(-1, 4)),
    "C(5;1,2)": (5, 1, 2),
}


def _graded_input(name):
    """End(P), the product of not_subgroup_demo(2, 3), or a # product of the E2_PARAMS objects."""
    if name == "End(P)":
        return witness_end_p()
    if name == "not_subgroup_demo(2, 3) product":
        return sharp_product(build_c_e2(1, 2, 2), build_c_e2(1, 1, 3))
    return functools.reduce(sharp_product, (build_c_e2(*E2_PARAMS[part]) for part in name.split(" # ")))


# (sha256 of the F₀/G₀ dump, graded central simple), computed with the former dense x·z·y loop
PINNED_F0G0 = {
    "C(2;3,-1)": ("f90914046053876b18a70a970507d1d78d461d6e4921a47c100ed11731cdfaa5", True),
    "C(1/2;0,5)": ("1b6db7d10480608d3a9db33b0f48de28705322807bb83424acfe16c25fd4d1ad", True),
    "C(-3;2/7,-1/4)": ("135c782535dad87c0d1257c551eb6d45203c16c487c60b5a91c1e1afbd01a9fa", True),
    "C(2;3,-1) # C(5;1,2)": ("7dce76694fb6651f062c54310a4c93717e4cb0f5a5a9af97148c3f557d757e52", True),
    "C(1/2;0,5) # C(5;1,2)": ("055f4109dc52fd1a1274da9125bd990ad98a398b32663dd3dae6d4d08ec5713d", True),
    "C(-3;2/7,-1/4) # C(5;1,2)": ("ef4fc92cd0d188f3ea62e58de2ae47b8af3c5d3cff4786b0db26735e1b0ce20e", True),
    "C(2;3,-1) # C(1/2;0,5) # C(-3;2/7,-1/4)": (
        "bc20800f04bd75d3773aeca0d9109a232f79e3497121ab620fa611d0c6192b25",
        True,
    ),
    "End(P)": ("9b0b534df41915651c8d3346e19841c1bb815051670642650b366b2db5b745d8", True),
    "not_subgroup_demo(2, 3) product": ("723bf89e60b5aaec3e940fee106542caf59eed74753bc3f9877fc43fb5902264", False),
}


@pytest.mark.parametrize("name", sorted(PINNED_F0G0))
def test_f0_g0_and_graded_verdicts_are_pinned(name):
    a = _graded_input(name)
    digest = _fg_dump_sha256(*f0_g0_matrices(a), keys=("F0", "G0"))
    assert (digest, is_graded_central_simple(a)) == PINNED_F0G0[name]
    if name == "not_subgroup_demo(2, 3) product":
        assert not_subgroup_demo(2, 3).product_gcs is False


def _sparse(rng, dim):
    v = {}
    for k in rng.sample(range(dim), rng.randint(1, dim)):
        v[k] = Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return v


@pytest.mark.parametrize("name", ["C#C d=4", "C#C over E(2)", "aut_algebra(5)"])
def test_contraction_on_sparse_vectors_combines_fg_columns(name):
    if name == "C#C d=4":
        a = sharp_product(build_C(TOWER[0]), build_C(TOWER[1]))
    elif name == "C#C over E(2)":
        a = sharp_product(build_c_e2(Q(2), Q(3), Q(-1)), build_c_e2(Q(-1, 2), Q(0), Q(5)))
    else:
        a = _verdict_input(name)
    d = a.dim
    f, g = fg_maps(a)
    fg = FGContraction(a)
    rng = random.Random(d)
    for _ in range(3):
        x, y, z = (_sparse(rng, d) for _ in range(3))
        for value, m in ((fg.f_value(x, y, z), f), (fg.g_value(x, y, z), g)):
            want = {}
            for i, cx in x.items():
                for j, cy in y.items():
                    for k, cz in z.items():
                        for p in range(d):
                            entry = m.data[k * d + p][i * d + j]
                            if entry:
                                want[p] = want.get(p, Q(0)) + cx * cy * cz * entry
            assert value == {p: v for p, v in want.items() if v}
