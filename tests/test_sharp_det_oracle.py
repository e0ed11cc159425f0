"""A determinant oracle for # products:

    det F(A#B) = det F(A)^{(dim B)²} · det F(B)^{(dim A)²},

and the same for G. The # product is the group law of BQ(k, H); the identity
is what an isomorphism F(A#B) ≅ F(A) ⊗ F(B) with determinant ±1 would give.
It is checked exactly on seeded C(a;t,s) towers up to d = 16, on towers with
a singular factor (both sides 0) and on # products of E(2) objects at d = 4
and 8."""

import random
from fractions import Fraction as Q

import pytest

from hopfbrauer.e2 import build_c_e2
from hopfbrauer.linalg import mat_det
from hopfbrauer.sweedler import CFamilyDescriptor, build_C
from hopfbrauer.yd import fg_maps, sharp_product


def _dets(a):
    f, g = fg_maps(a)
    return mat_det(f), mat_det(g)


def _sharp_with_dets(a, da, b, db):
    """A#B and its (det F, det G), after asserting the product formula."""
    p = sharp_product(a, b)
    got = _dets(p)
    assert got == tuple(x ** (b.dim**2) * y ** (a.dim**2) for x, y in zip(da, db))
    return p, got


def _rat(rng):
    num = 0
    while num == 0:
        num = rng.randint(-9, 9)
    return Q(num, rng.randint(1, 9))


def _azumaya_c(rng):
    while True:
        d = CFamilyDescriptor(_rat(rng), _rat(rng), _rat(rng))
        if d.is_azumaya:
            c = build_C(d)
            return c, _dets(c)


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_tower_dets_are_products_of_factor_dets(seed):
    rng = random.Random(seed)
    rung, dets = _azumaya_c(rng)
    while rung.dim < 16:
        rung, dets = _sharp_with_dets(rung, dets, *_azumaya_c(rng))
    assert rung.dim == 16 and 0 not in dets


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_singular_towers_have_zero_dets_on_both_sides(seed):
    rng = random.Random(seed)
    t, s = _rat(rng), _rat(rng)
    singular = build_C(CFamilyDescriptor(s * t / 2, t, s))
    zero = _dets(singular)
    assert zero == (0, 0)
    rung, dets = _sharp_with_dets(singular, zero, *_azumaya_c(rng))
    rung, dets = _sharp_with_dets(rung, dets, *_azumaya_c(rng))
    assert rung.dim == 8 and dets == (0, 0)
    c, dc = _azumaya_c(rng)
    assert _sharp_with_dets(c, dc, singular, zero)[1] == (0, 0)


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_e2_sharp_products_have_product_dets(seed):
    rng = random.Random(seed)
    objects = [build_c_e2(_rat(rng), _rat(rng), _rat(rng)) for _ in range(3)]
    a, b, c = ((o, _dets(o)) for o in objects)
    ab, dab = _sharp_with_dets(*a, *b)
    abc, dabc = _sharp_with_dets(ab, dab, *c)
    assert abc.dim == 8 and 0 not in dabc
