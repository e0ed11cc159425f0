"""The two pullbacks of the exact sequence (Thm 5.2, Prop 5.3) are group
maps: they send # products to # products and H-opposites, the inverse
classes, to H-opposites.

Along θ_{λ,μ}: E(2) → H₄, which takes R_N to R_{λμ}, an H₄-object A with the
coaction induced by R_{λμ} is pulled back to E(2) with the coaction induced
by R_N. Along T: D(H₄) → E(2), an (E(2), R_N)-object is pulled back to a
D(H₄)-module and read as a YD object over H₄ by ``double_to_yd``. Each
side of an identity is compared with ``same_structure``. The pullback of
A#B drops its coaction and induces it again, while the # of the pullbacks
forms its coaction from theirs, so each case ties ``sharp_product``,
``h_opposite``, ``induced_coaction``, ``restrict_along`` and
(θ⊗θ)(R_N) = R_{λμ} together. Three-fold products check that the images
associate as their sources do."""

import random
from fractions import Fraction as Q
from functools import reduce

import pytest

from hopfbrauer.e2 import build_c_e2, build_RN, restrict_along, t_morphism, theta
from hopfbrauer.sweedler import CFamilyDescriptor, build_C, build_h4, build_rt
from hopfbrauer.yd import double_to_yd, h_opposite, induced_coaction, sharp_product

SEEDS = range(8)


def _rat(rng, nonzero=False):
    while True:
        x = Q(rng.randint(-9, 9), rng.randint(1, 5))
        if x or not nonzero:
            return x


@pytest.mark.parametrize("seed", SEEDS)
def test_the_theta_pullback_is_a_group_map(seed):
    rng = random.Random(seed)
    lam, mu = _rat(rng, nonzero=True), _rat(rng)
    th, rt = theta(lam, mu), build_rt(lam * mu)
    a, b, c = (induced_coaction(build_C(CFamilyDescriptor(_rat(rng, nonzero=True), 1, lam * mu)), rt)
               for _ in range(3))

    def pull(x):
        return restrict_along(th, x, build_RN())

    assert pull(sharp_product(a, b)).same_structure(sharp_product(pull(a), pull(b)))
    assert pull(h_opposite(a)).same_structure(h_opposite(pull(a)))
    assert pull(reduce(sharp_product, (a, b, c))).same_structure(reduce(sharp_product, map(pull, (a, b, c))))


@pytest.mark.parametrize("seed", SEEDS)
def test_the_t_pullback_is_a_group_map(seed):
    rng = random.Random(seed)
    a, b, c = (build_c_e2(_rat(rng, nonzero=True), _rat(rng), _rat(rng)) for _ in range(3))

    def pull(x):
        return double_to_yd(restrict_along(t_morphism(), x), build_h4())

    assert pull(sharp_product(a, b)).same_structure(sharp_product(pull(a), pull(b)))
    assert pull(h_opposite(a)).same_structure(h_opposite(pull(a)))
    assert pull(reduce(sharp_product, (a, b, c))).same_structure(reduce(sharp_product, map(pull, (a, b, c))))
