"""The elements that cross the D(H₄)–E(2) bridge, on integer stores: R_t,
R_N, the named D(H₄) generators and ``YDObject.act_matrix``, each against
the same value computed over ℚ.

``build_rt`` and ``build_RN`` hand an integer R to ``hopf._qt_from_int``;
their reference is ``qt_structure``, the entry point for a dense R, on the
dense coefficients written out here. The named generators are checked
against ε⋈e_i and φ(e_i)⋈1 formed over ℚ from the stores of ε, 1 and φ,
and ``act_matrix`` against the action of ``tests/reference.py``.
"""

from fractions import Fraction as Q
from functools import cache

import pytest
import reference
from conftest import column, dense, dh4_named, unit_vec, yd_images
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfbrauer.e2 import build_e2, build_RN, witness_end_p, witness_p_module
from hopfbrauer.hopf import qt_structure
from hopfbrauer.sweedler import CFamilyDescriptor, build_C, build_dh4, build_h4, build_h4_dual, build_rt, phi_iso
from hopfbrauer.yd import module_tensor

LABELS = ("one", "g", "h", "gh")


def _dense_rt(t):
    """R_t = ½(1⊗1 + 1⊗g + g⊗1 − g⊗g) + (t/2)(h⊗h + h⊗gh + gh⊗gh − gh⊗h), e_i⊗e_j at 4i + j."""
    r = [Q(0)] * 16
    for (i, j), c in {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}.items():
        r[4 * i + j] = Q(c, 2)
    for (i, j), c in {(2, 2): 1, (2, 3): 1, (3, 2): -1, (3, 3): 1}.items():
        r[4 * i + j] = c * Q(t) / 2
    return r


def _same_store(qt, ref):
    """Equal ``int_pairs`` and ``int_inv``, their keys in the same order."""
    for mine, theirs in ((qt.int_pairs, ref.int_pairs), (qt.int_inv, ref.int_inv)):
        assert mine[0] == theirs[0] and list(mine[1].items()) == list(theirs[1].items())


@settings(max_examples=60)
@given(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6))
@example(Q(0))
@example(Q(-3, 2))
@example(Q(-7))
@example(Q(1, 999983))
def test_build_rt_is_qt_structure_on_the_dense_r_t(t):
    _same_store(build_rt(t), qt_structure(build_h4(), _dense_rt(t)))


def test_build_rn_is_qt_structure_on_the_dense_r_n():
    # ½(1⊗1 + 1⊗c + c⊗1 − c⊗c + x₁⊗cx₂ + x₁⊗x₂ + cx₁⊗cx₂ − cx₁⊗x₂), c at 1,
    # x₁ at 2, cx₁ at 3, x₂ at 4 and cx₂ at 5
    r = [Q(0)] * 64
    for (i, j), c in {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1,
                      (2, 5): 1, (2, 4): 1, (3, 5): 1, (3, 4): -1}.items():
        r[8 * i + j] = Q(c, 2)
    _same_store(build_RN(), qt_structure(build_e2(), r))


def test_the_named_generators_are_eps_bowtie_e_i_and_phi_e_i_bowtie_one():
    named = build_dh4()[0].meta["named"]
    assert set(named) == {*LABELS, *("phi_" + label for label in LABELS)}
    for den, v in named.values():
        assert type(den) is int and den > 0 and all(type(k) is int and type(c) is int and c for k, c in v.items())
    # f ⋈ a at 4i + j over ℚ, ε the unit of H₄*, 1 that of H₄, φ(e_i) column i of φ
    eps, one = unit_vec(build_h4_dual().alg), unit_vec(build_h4().alg)
    for idx, label in enumerate(LABELS):
        e_idx = [Q(int(j == idx)) for j in range(4)]
        for name, f, a in ((label, eps, e_idx), ("phi_" + label, column(phi_iso().matrix, idx), one)):
            assert dh4_named(name) == [f[i] * a[j] for i in range(4) for j in range(4)], name


# objects over D(H₄), E(2) and H₄, each built once
OBJECTS = {
    "P": cache(witness_p_module),
    "P⊗P": cache(lambda: module_tensor(witness_p_module(), witness_p_module())),
    "End(P)": cache(witness_end_p),
    "C(3;2,5)": cache(lambda: build_C(CFamilyDescriptor(Q(3), Q(2), Q(5)))),
}


@pytest.mark.parametrize("name", OBJECTS)
@settings(max_examples=40)
@given(data=st.data())
def test_act_matrix_is_the_reference_action_scaled_and_additive(name, data):
    a = OBJECTS[name]()
    n = a.hopf.dim
    element = st.dictionaries(st.integers(0, n - 1), st.integers(-9, 9).filter(bool), max_size=n)
    den, k, h, w = data.draw(st.integers(1, 12)), data.draw(st.integers(2, 7)), data.draw(element), data.draw(element)
    m = a.act_matrix((den, h))
    # the same element over k times the scale
    assert a.act_matrix((k * den, {i: k * c for i, c in h.items()})) == m
    # additive in h
    total = {i: h.get(i, 0) + w.get(i, 0) for i in sorted({*h, *w}) if h.get(i, 0) + w.get(i, 0)}
    assert a.act_matrix((den, total)) == m + a.act_matrix((den, w))
    # column s is h·e_s, by the reference action on the Fraction images
    u = {i: Q(c, den) for i, c in h.items()}
    cols = [reference._act(yd_images(a), u, {s: 1}) for s in range(a.dim)]
    assert dense(m) == [[cols[s].get(p, Q(0)) for s in range(a.dim)] for p in range(a.dim)]
