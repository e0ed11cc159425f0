"""The integer YD builders against the Fraction builders they replaced.

``YDObject`` stores its action and coaction as integers over their least
common denominators, and every builder on the (E(2), R_N) and H₄ paths writes
integer terms into that store. The builders as they were, on Fractions and
scaled once into ``YDObject.from_int`` (``conftest.sparse_yd``), are kept
here as the reference, as ``_sparse_rref`` and ``_det_bareiss`` are kept
beside their replacements; the E(2) action and the sandwich matrix are
``tests/reference.py``'s.
Each integer builder must give ``==`` Fraction ``images`` and ``rho`` and an
equal canonical integer store, on seeded parameters over E(2) and H₄ that
include t = 0, negative values, denominators near 10⁶ and singular
C(a;t,s). ``YDObject.from_int`` itself is checked to validate, sort and
divide by the gcd as ``StructureAlgebra.from_int`` does.
"""

import random
from fractions import Fraction as Q

import pytest
import reference
from conftest import (
    cop_sparse,
    dense,
    dense_algebra,
    form_matrix,
    mul_basis,
    mul_sparse,
    r_pairs,
    s_cols,
    sparse_yd,
    yd_images,
    yd_rho,
)

from hopfbrauer.algebra import endomorphism_algebra, opposite_algebra, sandwich_matrix
from hopfbrauer.e2 import (
    _k_z2,
    build_c_e2,
    build_e2,
    build_e2_module,
    build_RN,
    e2_action_from_generators,
    parity_object,
    witness_end_p,
)
from hopfbrauer.linalg import Matrix, dense_vec, over, scaled_vecs, sparse_sum
from hopfbrauer.sweedler import CFamilyDescriptor, build_C, build_h4, build_rt, build_rt_form
from hopfbrauer.yd import (
    YDObject,
    _tensor,
    action_grading,
    braiding_psi,
    end_yd,
    grouplike_index,
    induced_action,
    induced_coaction,
    module_tensor,
    sharp_product,
)

# -- The Fraction builders, as they were ------------------------------------


def _act(m, u, x):
    """u·e_x on the Fraction images."""
    return sparse_sum((c, yd_images(m)[x][i]) for i, c in u.items())


def ref_induced_coaction(a, r):
    rho = [
        [(*key, v) for key, v in sparse_sum(
            (c, {(p, i): x for p, x in images[k].items()}) for (i, k), c in r_pairs(r).items()
        ).items()]
        for images in yd_images(a)
    ]
    return sparse_yd(a.hopf, a.dim, a.alg, yd_images(a), rho)


def ref_induced_action(a, r):
    form = dense(form_matrix(*r.int_pairs))
    images = [[sparse_sum((c * form[i][k], {b: 1}) for b, k, c in row) for i in range(a.hopf.dim)] for row in yd_rho(a)]
    return sparse_yd(a.hopf, a.dim, a.alg, images, yd_rho(a))


def ref_module_tensor(m, w):
    h, mi, wi = m.hopf, yd_images(m), yd_images(w)
    images = [
        [
            sparse_sum((c, _tensor(mi[x][p].items(), wi[y][q].items(), w.dim)) for p, q, c in cop_sparse(h, i))
            for i in range(h.dim)
        ]
        for x in range(m.dim)
        for y in range(w.dim)
    ]
    return sparse_yd(h, m.dim * w.dim, images=images)


def ref_sharp_coaction(a, b):
    """ρ(x#y) = x₍₀₎#y₍₀₎ ⊗ y₍₁₎x₍₁₎ on Fractions."""
    db, halg = b.dim, a.hopf.alg
    return [
        [(*key, c) for key, c in sparse_sum(
            (cx * cy, {(ax * db + by, q): cq for q, cq in mul_basis(halg, ky, kx)})
            for ax, kx, cx in yd_rho(a)[x]
            for by, ky, cy in yd_rho(b)[y]
        ).items()]
        for x in range(a.dim)
        for y in range(db)
    ]


def ref_end_yd(m, variant):
    h, n, d, mi = m.hopf, m.hopf.dim, m.dim, yd_images(m)
    alg = endomorphism_algebra(d)
    if variant == "op":
        alg = opposite_algebra(alg)
    terms = [[] for _ in range(n)]
    for i in range(n):
        for p, q, c in cop_sparse(h, i):
            l, u = (p, s_cols(h)[q]) if variant == "plain" else (q, s_cols(h, inverse=True)[p])
            right = [[] for _ in range(d)]
            for x in range(d):
                for y, v in _act(m, u, x).items():
                    right[y].append((x, v))
            terms[i].append((c, l, right))
    images = [
        [sparse_sum((c, _tensor(right[y], mi[z][l].items(), d)) for c, l, right in terms[i]) for i in range(n)]
        for y in range(d)
        for z in range(d)
    ]
    if yd_rho(m) is None:
        return sparse_yd(h, d * d, alg, images)

    def h_part(k0, l1):
        if variant == "plain":
            return mul_sparse(h.alg, s_cols(h, inverse=True)[k0], {l1: Q(1)})
        return mul_sparse(h.alg, {l1: Q(1)}, s_cols(h)[k0])

    rho = [{} for _ in range(d * d)]
    for r in range(d):
        for t, k0, c0 in yd_rho(m)[r]:
            for s in range(d):
                out = rho[t * d + s]
                for b1, l1, c1 in yd_rho(m)[s]:
                    for q, cq in h_part(k0, l1).items():
                        key = (r * d + b1, q)
                        out[key] = out.get(key, 0) + c0 * c1 * cq
    return sparse_yd(h, d * d, alg, images, [[(*k, c) for k, c in out.items() if c] for out in rho])


def _ref_e12(t):
    return [{}, {0: t} if t else {}]


def _ref_c_alg(a, name):
    return dense_algebra(["1", "x"], [1, 0], [[[1, 0], [0, 1]], [[0, 1], [a, 0]]], name=name)


def ref_build_c_e2(a, t1, t2):
    a, t1, t2 = Q(a), Q(t1), Q(t2)
    images = reference.e2_action([{0: Q(1)}, {1: Q(-1)}], _ref_e12(t1), _ref_e12(t2))
    alg = _ref_c_alg(a, f"C({a};{t1},{t2})@E2")
    return ref_induced_coaction(sparse_yd(build_e2(), 2, alg, images), build_RN())


def ref_build_e2_module(l1, l2):
    images = reference.e2_action([{0: Q(1)}, {1: Q(-1)}], _ref_e12(Q(l1)), _ref_e12(Q(l2)))
    return ref_induced_coaction(sparse_yd(build_e2(), 2, images=images), build_RN())


def ref_build_C(d):
    hx = {0: d.t} if d.t else {}
    images = [[{0: 1}, {0: 1}, {}, {}], [{1: 1}, {1: -1}, hx, hx]]
    rho = [[(0, 0, 1)], [(1, 1, 1)] + ([(0, 2, d.s)] if d.s else [])]
    return sparse_yd(build_h4(), 2, _ref_c_alg(d.a, repr(d)), images, rho)


def ref_parity_view(a):
    parity = action_grading(a, grouplike_index(a.hopf))
    images = [[{j: 1}, {j: (-1) ** p}] for j, p in enumerate(parity)]
    return sparse_yd(_k_z2(), a.dim, a.alg, images, [[(j, p, 1)] for j, p in enumerate(parity)])


def ref_braiding_psi(v, w, r):
    vi, wi = yd_images(v), yd_images(w)
    columns = [
        sparse_sum((c, _tensor(wi[y][j].items(), vi[x][i].items(), v.dim)) for (i, j), c in r_pairs(r).items())
        for x in range(v.dim)
        for y in range(w.dim)
    ]
    return Matrix.from_cols([dense_vec(col, v.dim * w.dim) for col in columns])


# -- Seeded parameters --------------------------------------------------------

NEAR_1E6 = [Q(999_983, 999_979), Q(-999_961, 999_953), Q(1, 1_000_003), Q(-7, 999_983)]


def _params(seed: int, n: int) -> list[tuple[Q, Q, Q]]:
    """n triples of small rationals with zeros and negatives, then fixed
    triples with t = 0, s = 0, denominators near 10⁶ and 2a = st."""
    rng = random.Random(seed)

    def rat():
        return Q(rng.randint(-9, 9), rng.randint(1, 9))

    out = [(rat() or Q(1), rat(), rat()) for _ in range(n)]
    out += [
        (Q(3), Q(0), Q(5, 2)),
        (Q(-2, 3), Q(7), Q(0)),
        (NEAR_1E6[0], NEAR_1E6[1], NEAR_1E6[2]),
        (NEAR_1E6[3], Q(0), NEAR_1E6[0]),
        (Q(3), Q(2), Q(3)),  # 2a = st: singular
        (Q(-5, 4), Q(-1, 2), Q(5)),  # 2a = st: singular
    ]
    return out


E2_PARAMS = _params(2009, 8)
H4_PARAMS = [CFamilyDescriptor(*p) for p in _params(904, 8)]


def _same(new, ref):
    """== rational views, equal canonical stores, the same product."""
    assert yd_images(new) == yd_images(ref) and yd_rho(new) == yd_rho(ref)
    assert new.int_images == ref.int_images and new.int_rho == ref.int_rho
    assert (new.alg is None) == (ref.alg is None)
    assert new.alg is None or (new.alg.same_product(ref.alg) and new.alg.name == ref.alg.name)
    assert new.same_structure(ref)


# -- The builders against their references ------------------------------------


@pytest.mark.parametrize("params", E2_PARAMS, ids=str)
def test_e2_builders_match_the_fraction_builders(params):
    a = build_c_e2(*params)
    _same(a, ref_build_c_e2(*params))
    _same(build_e2_module(params[1:]), ref_build_e2_module(*params[1:]))
    _same(parity_object(a), ref_parity_view(a))
    _same(induced_coaction(a, build_RN()), ref_induced_coaction(a, build_RN()))


def test_e2_products_tensors_and_ends_match():
    objects = [build_c_e2(*p) for p in E2_PARAMS]
    modules = [build_e2_module(p[1:]) for p in E2_PARAMS]
    rn = build_RN()
    for a, b, v, w in zip(objects, objects[1:], modules, modules[3:]):
        prod = sharp_product(a, b)
        _same(prod, sparse_yd(prod.hopf, prod.dim, prod.alg, yd_images(ref_module_tensor(a, b)),
                              ref_sharp_coaction(a, b)))
        _same(module_tensor(v, w), ref_module_tensor(v, w))
        assert braiding_psi(v, w, rn) == ref_braiding_psi(v, w, rn)
        assert braiding_psi(a, prod, rn) == ref_braiding_psi(a, prod, rn)
        for variant in ("plain", "op"):
            _same(end_yd(v, variant), ref_end_yd(v, variant))
            _same(end_yd(a, variant), ref_end_yd(a, variant))
    _same(parity_object(prod), ref_parity_view(prod))


def test_e2_action_from_generators_matches_on_random_generators():
    rng = random.Random(41)
    for d in (2, 3, 4):
        for _ in range(10):
            gens = [
                [{k: Q(rng.randint(-9, 9), rng.choice([1, 7, 999_983])) for k in range(d) if rng.random() < 0.6}
                 for _ in range(d)]
                for _ in range(3)
            ]
            gens = [[{k: c for k, c in col.items() if c} for col in cols] for cols in gens]
            den, images = e2_action_from_generators(*map(scaled_vecs, gens))
            assert [[over(v, den) for v in row] for row in images] == reference.e2_action(*gens)
    end_p = witness_end_p()
    _same(end_p, ref_induced_coaction(sparse_yd(end_p.hopf, end_p.dim, end_p.alg, yd_images(end_p)), build_RN()))


@pytest.mark.parametrize("d", H4_PARAMS, ids=repr)
def test_h4_builders_match_the_fraction_builders(d):
    c = build_C(d)
    _same(c, ref_build_C(d))
    for l in (Q(0), d.t, Q(-3, 7), NEAR_1E6[1]):
        _same(induced_coaction(c, build_rt(l)), ref_induced_coaction(c, build_rt(l)))
        _same(induced_action(c, build_rt_form(l)), ref_induced_action(c, build_rt_form(l)))
    for variant in ("plain", "op"):
        _same(end_yd(c, variant), ref_end_yd(c, variant))


def test_h4_products_tensors_and_braidings_match():
    cs = [build_C(d) for d in H4_PARAMS]
    for a, b in zip(cs, cs[2:]):
        prod = sharp_product(a, b)
        _same(prod, sparse_yd(prod.hopf, prod.dim, prod.alg, yd_images(ref_module_tensor(a, b)),
                              ref_sharp_coaction(a, b)))
        _same(module_tensor(a, prod), ref_module_tensor(a, prod))
        for t in (Q(0), Q(5, 3)):
            assert braiding_psi(a, b, build_rt(t)) == ref_braiding_psi(a, b, build_rt(t))
        _same(end_yd(prod, "op"), ref_end_yd(prod, "op"))


def test_sandwich_matrix_matches_the_dense_product():
    algebras = [build_C(d).alg for d in H4_PARAMS[:4]] + [endomorphism_algebra(3)]
    algebras += [sharp_product(build_C(H4_PARAMS[0]), build_C(H4_PARAMS[-1])).alg]
    algebras += [sharp_product(build_c_e2(*E2_PARAMS[0]), build_c_e2(*E2_PARAMS[-3])).alg]
    for alg in algebras:
        assert sandwich_matrix(alg) == reference.sandwich(alg)


# -- from_int ------------------------------------------------------------------


def test_from_int_sorts_divides_by_the_gcd_and_equals_from_sparse():
    # the reference is the same rationals scaled once by ``sparse_yd``
    h4 = build_h4()
    alg = build_C(H4_PARAMS[0]).alg
    images = [[{0: 6}, {0: 6}, {}, {}], [{1: 6}, {1: -6}, {0: 4}, {0: 4}]]
    rho = [[(0, 0, 6)], [(1, 1, 6), (0, 2, -3)]]
    obj = YDObject.from_int(h4, 2, alg, (6, images), (6, [rho[0], rho[1][::-1]]))
    assert obj.int_images == (3, [[{0: 3}, {0: 3}, {}, {}], [{1: 3}, {1: -3}, {0: 2}, {0: 2}]])
    assert obj.int_rho == (2, [((0, 0, 2),), ((0, 2, -1), (1, 1, 2))])
    fractions = [[{p: Q(c, 6) for p, c in v.items()} for v in row] for row in images]
    ref = sparse_yd(h4, 2, alg, fractions, [[(a, k, Q(c, 6)) for a, k, c in row] for row in rho])
    _same(obj, ref)
    # a store is shared, not copied or scaled again
    shared = YDObject.from_int(h4, 2, None, obj.int_images, obj.int_rho)
    assert shared.int_images is obj.int_images and shared.int_rho is obj.int_rho
    unsorted = YDObject.from_int(h4, 2, images=(1, [[{0: 1}, {}, {}, {}], [{1: 1, 0: 2}, {}, {}, {}]]))
    assert list(unsorted.int_images[1][1][0]) == [0, 1]


@pytest.mark.parametrize(
    "images, rho, message",
    [
        ((0, [[{}] * 4] * 2), None, "scale"),
        ((Q(2), [[{}] * 4] * 2), None, "scale"),
        ((1, [[{2: 1}, {}, {}, {}], [{}] * 4]), None, "not in range"),
        ((1, [[{-1: 1}, {}, {}, {}], [{}] * 4]), None, "not in range"),
        ((1, [[{0: 0}, {}, {}, {}], [{}] * 4]), None, "nonzero int"),
        ((1, [[{0: Q(1)}, {}, {}, {}], [{}] * 4]), None, "nonzero int"),
        ((1, [[{0: 1.0}, {}, {}, {}], [{}] * 4]), None, "nonzero int"),
        ((1, [[{}] * 4]), None, "rows"),
        ((1, [[{}] * 3] * 2), None, "rows"),
        (None, (1, [[(0, 4, 1)], []]), "not in range"),
        (None, (1, [[(2, 0, 1)], []]), "not in range"),
        (None, (1, [[(0, 0, 1), (0, 0, 2)], []]), "twice"),
        (None, (1, [[(0, 0, 0)], []]), "nonzero int"),
        (None, (1, [[(0, 0, 1)]]), "rows"),
        (None, (1, [[(0, 1)], []]), "unpack"),
        (None, (1, [[(True, 0, 1)], []]), "not in range"),
        (None, (-3, [[], []]), "scale"),
        (None, (1, [[(0, 1.5, 1)], []]), "not in range"),
    ],
)
def test_from_int_rejects_a_bad_term(images, rho, message):
    with pytest.raises(ValueError, match=message) as err:
        YDObject.from_int(build_h4(), 2, None, images, rho)
    if rho and rho[1][0] and rho[1][0][-1] in COACTION_MESSAGES:
        assert str(err.value) == COACTION_MESSAGES[rho[1][0][-1]]


# the whole message for a bad term of ρ, keyed by the term: it names the (a, k) pair
COACTION_MESSAGES = {
    (0, 4, 1): "sparse term index (0, 4) is not in range(2)×range(4)",
    (2, 0, 1): "sparse term index (2, 0) is not in range(2)×range(4)",
    (0, 0, 2): "sparse term index (0, 0) occurs twice",
    (0, 0, 0): "sparse term index (0, 0) has a zero coefficient, not a nonzero int",
    (True, 0, 1): "sparse term index (True, 0) is not in range(2)×range(4)",
    (0, 1.5, 1): "sparse term index (0, 1.5) is not in range(2)×range(4)",
}
