"""Exactness of the flat verdict kernels against the loops they replaced.

``mat_det`` finds its pivot row by a ``min`` over a dict of row lengths kept
in row-index order, ``fg_maps`` accumulates F for every y at once and G from
one flat list of product terms, and ``sandwich_matrix`` forms each e_i·e_k
once. The earlier ``mat_det`` loop is kept here as a reference, as
``_det_bareiss`` is in test_linalg; F, G and the sandwich matrix are checked
against ``tests/reference.py``. The determinants, the pivot sequences, the
integer rows of F and G (denominator and dict) and the sandwich matrices
must be equal, on C(a;t,s) towers from d = 2 to 16, a singular tower, A_α,
E(2) objects with a # product and their parity views, and seeded
integer-row matrices with the edge cases of the elimination. ``mat_det``
also divides each pivot row by its content, which the reference does not;
on the seed-7 d = 8 rung that cuts the entries multiplied to rescale target
rows, a count pinned here."""

import math
import random
from fractions import Fraction as Q

import pytest
import reference
from test_linalg import _mat_det_line_hits

from conftest import dense

from hopfbrauer import linalg
from hopfbrauer.algebra import sandwich_matrix
from hopfbrauer.e2 import build_c_e2, parity_object
from hopfbrauer.linalg import CONTENT_BITS, DimensionError, Matrix, _perm_sign, mat_det
from hopfbrauer.sweedler import CFamilyDescriptor, aut_algebra, build_C
from hopfbrauer.yd import fg_maps, sharp_product


def _mat_det_reference(m: Matrix, trace: list | None = None) -> Q:
    """The elimination with the pivot row found by a key function per
    remaining row, (len, index). The pivot row keeps its content, so this
    determinant has no ∏ g term and checks mat_det's division of each pivot
    row by its gcd g, and the g it multiplies back, independently. Appends
    (row order, column order, number of rows whose denominator passed
    ``CONTENT_BITS``) to ``trace`` when it ends with a nonzero determinant."""
    if not m.is_square():
        raise DimensionError("determinant of non-square matrix")
    rows: dict[int, dict[int, int]] = {}
    dens: dict[int, int] = {}
    for i, (row_den, r) in enumerate(m.int_rows):
        content = math.gcd(row_den, *r.values())
        d = {c: v // content for c, v in r.items() if v}
        if not d:
            return Q(0)
        rows[i] = d
        dens[i] = row_den // content
    col_count: dict[int, int] = {}
    for d in rows.values():
        for c in d:
            col_count[c] = col_count.get(c, 0) + 1
    num = den = 1
    crossings = 0
    row_order: list[int] = []
    col_order: list[int] = []
    while rows:
        pr = min(rows, key=lambda ri: (len(rows[ri]), ri))
        pc = min(rows[pr], key=lambda c: (col_count[c], c))
        prow = rows.pop(pr)
        pv = prow.pop(pc)
        num *= pv
        den *= dens.pop(pr)
        row_order.append(pr)
        col_order.append(pc)
        col_count[pc] -= 1
        for c in prow:
            col_count[c] -= 1
        pitems = list(prow.items())
        for ri, d in rows.items():
            f = d.pop(pc, None)
            if f is None:
                continue
            col_count[pc] -= 1
            g = math.gcd(pv, f)
            if pv < 0:
                g = -g
            a, b = pv // g, f // g
            if a != 1:
                for c in d:
                    d[c] *= a
                dens[ri] *= a
            for c, v in pitems:
                old = d.get(c)
                if old is None:
                    d[c] = -b * v
                    col_count[c] += 1
                    continue
                nv = old - b * v
                if nv:
                    d[c] = nv
                else:
                    del d[c]
                    col_count[c] -= 1
            if not d:
                return Q(0)
            if dens[ri].bit_length() > CONTENT_BITS:
                crossings += 1
                content = math.gcd(dens[ri], *d.values())
                if content != 1:
                    for c in d:
                        d[c] //= content
                    dens[ri] //= content
    if trace is not None:
        trace.append((row_order, col_order, crossings))
    return Q(num * _perm_sign(row_order) * _perm_sign(col_order), den)


def _pivots(monkeypatch) -> list:
    """Record the row and column orders ``mat_det`` hands to ``_perm_sign``."""
    orders = []

    def recorded(order):
        orders.append(list(order))
        return _perm_sign(order)

    monkeypatch.setattr(linalg, "_perm_sign", recorded)
    return orders


def _assert_same_det(monkeypatch, m: Matrix) -> Q:
    orders = _pivots(monkeypatch)
    trace = []
    det = mat_det(m)
    assert det == _mat_det_reference(m, trace)
    # the same pivot rows and columns, in the same order
    assert orders == (list(trace[0][:2]) if trace else [])
    return det


def _rat(rng):
    num = 0
    while num == 0:
        num = rng.randint(-9, 9)
    return Q(num, rng.randint(1, 9))


def _azumaya_c(rng):
    while True:
        d = CFamilyDescriptor(_rat(rng), _rat(rng), _rat(rng))
        if d.is_azumaya:
            return build_C(d)


def _tower(seed: int, top: int, singular: bool = False) -> list:
    """The rungs of a seeded C(a;t,s) tower up to dimension ``top``; the first
    factor has a = st/2 when ``singular``."""
    rng = random.Random(seed)
    if singular:
        t, s = _rat(rng), _rat(rng)
        rung = build_C(CFamilyDescriptor(s * t / 2, t, s))
    else:
        rung = _azumaya_c(rng)
    rungs = [rung]
    while rung.dim < top:
        rung = sharp_product(rung, _azumaya_c(rng))
        rungs.append(rung)
    return rungs


def _e2_objects():
    a = build_c_e2(Q(2, 7), Q(3, 5), Q(-1, 11))
    b = build_c_e2(Q(5), Q(1, 3), Q(2))
    objects = [a, b, sharp_product(a, b)]
    return objects + [parity_object(o) for o in objects]


def _check_verdict_kernels(monkeypatch, a, expect_nonzero: bool | None = None):
    f, g = fg_maps(a)
    # the integer rows of F and G share the scale D_c·D_a·D_m²
    den = a.int_rho[0] * a.int_images[0] * a.alg.int_sp[0] ** 2
    ref_f, ref_g = ([(den, {c: v * den for c, v in enumerate(row) if v}) for row in dense(m)] for m in reference.fg(a))
    assert f.int_rows == ref_f and g.int_rows == ref_g
    dets = [_assert_same_det(monkeypatch, m) for m in (f, g)]
    if expect_nonzero is not None:
        assert all(dets) == expect_nonzero and any(dets) == expect_nonzero
    if a.dim <= 8:
        assert sandwich_matrix(a.alg) == reference.sandwich(a.alg)


def test_c_tower_from_2_to_16(monkeypatch):
    rungs = _tower(7, 16)
    assert [r.dim for r in rungs] == [2, 4, 8, 16]
    for rung in rungs:
        _check_verdict_kernels(monkeypatch, rung, True)


def test_primitive_pivot_rows_halve_the_row_scalings(monkeypatch):
    """Each pivot row is divided by the gcd of its integers before it updates
    the rows below it, so a target row is rescaled by a = pv/gcd(pv, f) of a
    small pivot. On the seed-7 d = 8 rung, mat_det multiplied 2,401 entries
    of F and 1,131 of G while pivot rows kept their content; the pins are
    the counts with primitive pivot rows, and the pivot sequence is the
    reference's."""
    rung = _tower(7, 8)[-1]
    assert rung.dim == 8
    counts = []
    for m in fg_maps(rung):
        det, (scaled,) = _mat_det_line_hits(m, "d[c] *= a")
        assert det == _assert_same_det(monkeypatch, m) != 0
        counts.append(scaled)
    assert counts == [964, 213]


def test_singular_tower(monkeypatch):
    rungs = _tower(3, 8, singular=True)
    assert [r.dim for r in rungs] == [2, 4, 8]
    for rung in rungs:
        _check_verdict_kernels(monkeypatch, rung, False)


def test_a_alpha(monkeypatch):
    _check_verdict_kernels(monkeypatch, aut_algebra(Q(5, 2)), True)


def test_e2_objects_their_sharp_product_and_parity_views(monkeypatch):
    objects = _e2_objects()
    assert [o.dim for o in objects] == [2, 2, 4, 2, 2, 4]
    for o in objects:
        _check_verdict_kernels(monkeypatch, o)


def _random_rows(rng, n: int, per_row: int, big: bool = False) -> list:
    bound = 2**40 if big else 9
    rows = []
    for _ in range(n):
        cols = rng.sample(range(n), per_row)
        rows.append((rng.randint(1, bound), {c: rng.choice([-1, 1]) * rng.randint(1, bound) for c in cols}))
    return rows


@pytest.mark.parametrize("seed", range(6))
def test_seeded_integer_rows(monkeypatch, seed):
    rng = random.Random(seed)
    n = rng.randint(5, 12)
    m = Matrix.from_int_rows(_random_rows(rng, n, rng.randint(2, 4)), n)
    _assert_same_det(monkeypatch, m)


def test_zero_row(monkeypatch):
    rows = _random_rows(random.Random(1), 6, 3)
    rows[3] = (5, {})
    assert _assert_same_det(monkeypatch, Matrix.from_int_rows(rows, 6)) == 0


def test_row_that_cancels_to_empty():
    rng = random.Random(2)
    rows = _random_rows(rng, 7, 3)
    den, r = rows[1]
    rows[5] = (3 * den, {c: -2 * v for c, v in r.items()})  # −2/3 times row 1
    m = Matrix.from_int_rows(rows, 7)
    trace = []
    assert mat_det(m) == _mat_det_reference(m, trace) == 0
    assert trace == []  # ended in the elimination, no row being empty at the start


def _first_pivot_row(m: Matrix) -> int:
    trace = []
    _mat_det_reference(m, trace)
    return trace[0][0][0]


def test_row_length_ties_take_the_lowest_index(monkeypatch):
    # every row has two nonzeros, so every pivot search is a tie
    n = 8
    m = Matrix.from_int_rows([(1, {i: i + 2, (i + 1) % n: 1}) for i in range(n)], n)
    assert _assert_same_det(monkeypatch, m) != 0
    assert _first_pivot_row(m) == 0
    # rows 2 and 5 are the lightest; the lower index is the first pivot
    rows = [(1, {c: c + r + 1 for c in range(6) if (c + r) % 3}) for r in range(6)]
    rows[2] = (1, {0: 3, 4: -1})
    rows[5] = (1, {1: 2, 3: 5})
    m = Matrix.from_int_rows(rows, 6)
    assert _assert_same_det(monkeypatch, m) != 0
    assert _first_pivot_row(m) == 2


def test_denominator_past_content_bits(monkeypatch):
    rng = random.Random(4)
    m = Matrix.from_int_rows(_random_rows(rng, 10, 10, big=True), 10)
    trace = []
    assert _assert_same_det(monkeypatch, m) == _mat_det_reference(m, trace) != 0
    assert trace[0][2] > 0


def test_one_by_one(monkeypatch):
    assert _assert_same_det(monkeypatch, Matrix.from_int_rows([(3, {0: -5})], 1)) == Q(-5, 3)
    assert _assert_same_det(monkeypatch, Matrix.from_int_rows([(3, {})], 1)) == 0


def test_non_square_is_rejected():
    m = Matrix.from_int_rows([(1, {0: 1}), (1, {1: 1})], 3)
    for det in (mat_det, _mat_det_reference):
        with pytest.raises(DimensionError):
            det(m)
