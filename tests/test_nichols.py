"""Nichols' Hopf algebras E(n) from one builder, ``sweedler.nichols``.

kℤ₂ = E(0), H₄ = E(1) and E(2) are calls of it (``e2._k_z2``,
``sweedler.build_h4``, ``e2.build_e2``). E(0) to E(3) pass the Hopf axioms
and satisfy the defining relations on their generators, read from the stores.
The stores of kℤ₂, which has no JSON pin (H₄ and E(2) have theirs in
``test_port_pins.py``), are pinned below as the table it was written with
before the builder, and the metas of all three are pinned with their key
order.
"""

from fractions import Fraction as Q

import pytest

from conftest import cop_sparse, mul_basis, s_cols
from hopfbrauer.e2 import _k_z2, build_e2
from hopfbrauer.hopf import check_hopf_axioms
from hopfbrauer.sweedler import build_h4, nichols

KZ2_STORES = {
    "basis": ["1", "g"],
    "int_unit": (1, {0: 1}),
    "int_sp": (1, [[((0, 1),), ((1, 1),)], [((1, 1),), ((0, 1),)]]),
    "int_cop": (1, [((0, 0, 1),), ((1, 1, 1),)]),
    "int_counit": (1, {0: 1, 1: 1}),
    "int_s": (1, [{0: 1}, {1: 1}]),
    "int_s_inv": (1, [{0: 1}, {1: 1}]),
}

METAS = {
    "kZ2": (_k_z2, [("g", 1), ("pi_keep", (0, 1))]),
    "H4": (build_h4, [("g", 1), ("h", 2), ("pi_keep", (0, 1))]),
    "E2": (build_e2, [("c", 1), ("x1", 2), ("x2", 4), ("pi_keep", (0, 1))]),
}


def e(n: int):
    """E(n) with generators c, x1, …, xn."""
    return nichols(f"E{n}", "c", tuple(f"x{i}" for i in range(1, n + 1)))


def _stores(h) -> dict:
    found = {"basis": h.alg.basis, "int_unit": h.alg.int_unit, "int_sp": h.alg.int_sp}
    found.update((attr, getattr(h, attr)) for attr in ("int_cop", "int_counit", "int_s", "int_s_inv"))
    return found


def test_kz2_stores_are_pinned():
    assert _stores(_k_z2()) == KZ2_STORES
    assert _k_z2().name == _k_z2().alg.name == "kZ2"


@pytest.mark.parametrize("name", sorted(METAS))
def test_metas_are_pinned(name):
    build, items = METAS[name]
    h = build()
    assert list(h.meta.items()) == items
    assert (h.name, h.alg.name) == (name, name)


@pytest.mark.parametrize("n", range(4))
def test_e_n_passes_the_hopf_axioms(n):
    rep = check_hopf_axioms(e(n))
    assert rep.ok, rep.failures


@pytest.mark.parametrize("n", range(4))
def test_e_n_basis_and_defining_relations(n):
    h = e(n)
    xs = [1 << i for i in range(1, n + 1)]
    assert h.dim == 2 ** (n + 1)
    assert h.alg.basis[:2] == ["1", "c"] and [h.alg.basis[x] for x in xs] == [f"x{i}" for i in range(1, n + 1)]
    assert h.alg.basis[-1] == "c" + "".join(f"x{i}" for i in range(1, n + 1))
    assert h.alg.int_unit == (1, {0: 1}) and h.int_counit == (1, {0: 1, 1: 1})
    one = Q(1)
    assert mul_basis(h.alg, 1, 1) == ((0, one),)
    assert cop_sparse(h, 1) == ((1, 1, one),)
    assert s_cols(h)[1] == s_cols(h, inverse=True)[1] == {1: one}
    for i, x in enumerate(xs):
        assert mul_basis(h.alg, x, x) == ()
        # cxᵢ is the basis element x + 1, and xᵢc = −cxᵢ
        assert mul_basis(h.alg, 1, x) == ((x + 1, one),) and mul_basis(h.alg, x, 1) == ((x + 1, -one),)
        assert set(cop_sparse(h, x)) == {(0, x, one), (x, 1, one)}
        assert s_cols(h)[x] == {x + 1: one} and s_cols(h, inverse=True)[x] == {x + 1: -one}
        for y in xs[i + 1:]:
            # xᵢxⱼ is the basis element x + y, and xⱼxᵢ = −xᵢxⱼ for j > i
            assert mul_basis(h.alg, x, y) == ((x + y, one),) and mul_basis(h.alg, y, x) == ((x + y, -one),)
