import random
from fractions import Fraction as Q

import pytest

import reference
from conftest import dense_algebra, dense_mult, mul_sparse, unit_vec
from hopfbrauer.algebra import (
    Grading,
    center,
    check_algebra_axioms,
    endomorphism_algebra,
    is_central_simple,
    opposite_algebra,
    super_center,
)
from hopfbrauer.linalg import in_span, sparse_vec


def group_algebra_z2():
    return dense_algebra(
        ["1", "g"],
        [1, 0],
        [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        name="kZ2",
    )


def c_algebra(a):
    return dense_algebra(
        ["1", "x"],
        [1, 0],
        [[[1, 0], [0, 1]], [[0, 1], [a, 0]]],
        name=f"C({a})",
    )


def quaternion_algebra(a, b, m=0):
    """1, X, Y, XY with X² = a, Y² = b, XY + YX = m."""
    return dense_algebra(
        ["1", "X", "Y", "XY"],
        [1, 0, 0, 0],
        [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[0, 1, 0, 0], [a, 0, 0, 0], [0, 0, 0, 1], [0, 0, a, 0]],
            [[0, 0, 1, 0], [m, 0, 0, -1], [b, 0, 0, 0], [0, -b, m, 0]],
            [[0, 0, 0, 1], [0, m, -a, 0], [0, b, 0, 0], [-a * b, 0, 0, m]],
        ],
        name="quaternion",
    )


def test_axioms_group_algebra():
    assert check_algebra_axioms(group_algebra_z2()).ok


def test_axioms_c_family():
    rng = random.Random(2)
    for _ in range(5):
        a = Q(rng.randint(-9, 9), rng.randint(1, 9))
        assert check_algebra_axioms(c_algebra(a)).ok


def test_axioms_detect_corruption():
    good = quaternion_algebra(Q(1), Q(1))
    mult = dense_mult(good)
    mult[1][2][0] += Q(1)  # perturb X·Y
    rep = check_algebra_axioms(dense_algebra(good.basis, unit_vec(good), mult))
    assert not rep.ok and any("associativity" in f for f in rep.failures)


def test_axiom_failures_on_a_corrupted_sharp_rung_are_pinned():
    from test_work_counts import _ladder_rung_d8

    rung = _ladder_rung_d8().alg
    mult = dense_mult(rung)
    mult[3][5][6] += Q(1, 3)  # perturb (1#x#x)·(x#1#x)
    rep = check_algebra_axioms(dense_algebra(rung.basis, unit_vec(rung), mult))
    triples = [
        (1, 2, 5), (1, 3, 5), (1, 7, 5), (2, 1, 5), (2, 3, 5), (2, 7, 5), (3, 1, 4), (3, 1, 7),
        (3, 2, 7), (3, 3, 5), (3, 3, 6), (3, 4, 1), (3, 5, 1), (3, 5, 2), (3, 5, 3), (3, 5, 4),
        (3, 5, 5), (3, 5, 6), (3, 5, 7), (3, 6, 3), (3, 7, 2), (3, 7, 4), (3, 7, 7), (4, 3, 5),
        (4, 7, 5), (5, 3, 5), (5, 6, 5), (6, 3, 5), (6, 5, 5), (7, 3, 5), (7, 4, 5), (7, 7, 5),
    ]
    assert rep.failures == [f"associativity fails at triple ({i},{j},{l})" for i, j, l in triples]
    mult = dense_mult(rung)
    mult[0][2][2] -= 1  # the unit no longer fixes 1#x#1
    mult[0][2][3] += 2
    rep = check_algebra_axioms(dense_algebra(rung.basis, unit_vec(rung), mult))
    assert rep.failures[0] == "unit law fails at basis element 1#x#1"
    assert len(rep.failures) == 39 and rep.failures[1] == "associativity fails at triple (0,1,3)"
    assert rep.failures[-1] == "associativity fails at triple (7,7,2)"


def test_multiply_unit_and_relation():
    alg = c_algebra(Q(5))
    x = {1: Q(1)}
    one = sparse_vec(unit_vec(alg))
    assert mul_sparse(alg, one, x) == x == mul_sparse(alg, x, one)
    assert mul_sparse(alg, x, x) == {k: 5 * u for k, u in one.items()}


def test_multiply_matches_double_sum_oracle():
    rng = random.Random(9)
    alg = quaternion_algebra(Q(2), Q(-3), Q(1))
    mult = dense_mult(alg)
    for _ in range(10):
        x = [Q(rng.randint(-5, 5)) for _ in range(4)]
        y = [Q(rng.randint(-5, 5)) for _ in range(4)]
        naive = [Q(0)] * 4
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    naive[k] += x[i] * y[j] * mult[i][j][k]
        assert alg.mul_vec(x, y) == naive
        assert mul_sparse(alg, sparse_vec(x), sparse_vec(y)) == sparse_vec(naive)


def test_opposite_involution_and_commutative_case():
    comm = c_algebra(Q(3))
    assert opposite_algebra(comm).same_product(comm)
    alg = quaternion_algebra(Q(1), Q(1))
    opp = opposite_algebra(alg)
    assert check_algebra_axioms(opp).ok
    assert opposite_algebra(opp).same_product(alg)


def test_opposite_of_matrix_algebra_via_transpose():
    # transposition is an isomorphism End(k²) → End(k²)^op
    end = endomorphism_algebra(2)
    opp = opposite_algebra(end)

    def transpose_vec(v):
        out = [Q(0)] * 4
        for q in range(2):
            for p in range(2):
                out[p * 2 + q] = v[q * 2 + p]
        return out

    for i in range(4):
        for j in range(4):
            lhs = transpose_vec(end.mul_vec(end.basis_vec(i), end.basis_vec(j)))
            rhs = opp.mul_vec(transpose_vec(end.basis_vec(i)), transpose_vec(end.basis_vec(j)))
            assert lhs == rhs


def test_endomorphism_algebra_basics():
    assert endomorphism_algebra(1).dim == 1
    end = endomorphism_algebra(2)
    e11 = end.basis.index("E11")
    e12 = end.basis.index("E12")
    prod = end.mul_vec(end.basis_vec(e11), end.basis_vec(e12))
    assert prod == end.basis_vec(e12)
    assert end.mul_vec(end.basis_vec(e12), end.basis_vec(e11)) == [0, 0, 0, 0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_algebras_central_simple(n):
    assert is_central_simple(endomorphism_algebra(n))


def test_central_simplicity_examples():
    assert not is_central_simple(group_algebra_z2())
    assert is_central_simple(quaternion_algebra(Q(1), Q(1)))  # X²=Y²=1, XY=−YX


def test_center():
    end = endomorphism_algebra(2)
    z = center(end)
    assert len(z) == 1 and in_span(z, unit_vec(end))
    assert len(center(c_algebra(Q(2)))) == 2
    rng = random.Random(4)
    alg = quaternion_algebra(Q(2), Q(5), Q(1))
    for zvec in center(alg):
        for i in range(4):
            assert alg.mul_vec(zvec, alg.basis_vec(i)) == alg.mul_vec(alg.basis_vec(i), zvec)


def test_unit_in_center_random():
    for alg in (group_algebra_z2(), quaternion_algebra(Q(2), Q(-1), Q(3)), endomorphism_algebra(2)):
        assert in_span(center(alg), unit_vec(alg))


def super_center_bruteforce(alg, parity):
    # solve z·e_i = ±e_i·z per parity component by brute enumeration of a
    # spanning set via the generic solver on dense matrices
    out = []
    from hopfbrauer.linalg import Matrix as M, kernel_basis

    for pz in (0, 1):
        cols = [j for j in range(alg.dim) if parity[j] == pz]
        if not cols:
            continue
        rows = []
        for i in range(alg.dim):
            sign = -1 if (pz and parity[i]) else 1
            for k in range(alg.dim):
                rows.append(
                    [
                        alg.mul_vec(alg.basis_vec(j), alg.basis_vec(i))[k]
                        - sign * alg.mul_vec(alg.basis_vec(i), alg.basis_vec(j))[k]
                        for j in cols
                    ]
                )
        for vec in kernel_basis(M(rows)):
            full = [Q(0)] * alg.dim
            for c, j in enumerate(cols):
                full[j] = vec[c]
            out.append(full)
    return out


def test_super_center_clifford():
    # C(1) ⊗̂ C(−1): X²=1, Y²=−1, XY=−YX; super-center is k·1
    alg = quaternion_algebra(Q(1), Q(-1))
    grading = Grading(alg, (0, 1, 1, 0))
    sc = super_center(alg, grading)
    assert len(sc) == 1 and in_span(sc, unit_vec(alg))
    brute = super_center_bruteforce(alg, (0, 1, 1, 0))
    assert len(brute) == len(sc)


def test_super_center_contains_x_minus_y():
    # X² = Y² = 1, XY + YX = 2: X − Y is super-central
    alg = quaternion_algebra(Q(1), Q(1), Q(2))
    sc = super_center(alg, Grading(alg, (0, 1, 1, 0)))
    x_minus_y = [Q(0), Q(1), Q(-1), Q(0)]
    assert in_span(sc, x_minus_y)


def test_super_center_even_commutative_is_everything():
    alg = c_algebra(Q(7))
    sc = super_center(alg, Grading(alg, (0, 0)))
    assert len(sc) == 2


def test_super_center_trivial_grading_equals_center():
    alg = quaternion_algebra(Q(2), Q(3), Q(1))
    sc = super_center(alg, Grading(alg, (0, 0, 0, 0)))
    z = center(alg)
    assert len(sc) == len(z)
    assert all(in_span(z, v) for v in sc)


def test_incompatible_grading_rejected():
    alg = c_algebra(Q(1))
    with pytest.raises(AssertionError):
        super_center(alg, Grading(alg, (1, 0)))


def test_axioms_match_dense_reference():
    good = quaternion_algebra(Q(2), Q(-3), Q(1))
    mult = dense_mult(good)
    mult[1][2][0] += Q(1)
    mult[3][3][3] -= Q(2)
    unit = [Q(1), Q(0), Q(1, 2), Q(0)]
    algebras = [
        good,
        endomorphism_algebra(3),
        opposite_algebra(c_algebra(Q(-7))),
        dense_algebra(good.basis, unit_vec(good), mult),
        dense_algebra(good.basis, unit, dense_mult(good)),
    ]
    for alg in algebras:
        want = reference.algebra_axioms(alg)
        assert check_algebra_axioms(alg).failures == want
    assert reference.algebra_axioms(good) == []
    assert any("associativity" in f for f in reference.algebra_axioms(algebras[3]))
    assert any("unit law" in f for f in reference.algebra_axioms(algebras[4]))
