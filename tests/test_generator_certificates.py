"""The generator certificates against the itemized loops they shortcut.

``StructureAlgebra.generators`` and ``associative`` let each multiplicative
law run on a generating set first (``algebra.on_generators``). The
references are the itemized loops over every basis index in
``tests/reference.py``: ``check_algebra_axioms``, the four Yetter-Drinfeld
law checks and ``check_hopf_axioms``, message for message.
Seeded corruptions of the action, the coaction and the product of C towers,
E(2) objects, a # product of E(2) objects and A_α, and of the product,
coproduct and antipode of H₄, E(2) and D(H₄), must give the reference's
failure list exactly. So must one case per prerequisite of the shortcut in
which that prerequisite fails. A basis-change oracle finds the generating
sets on dense bases, where det F and det G scale by det(P)^{2d}.
"""

import random
from fractions import Fraction as Q

import pytest

from conftest import (
    action_matrices,
    coaction_rows,
    cop_sparse,
    counit_vec,
    dense_algebra,
    dense_cop,
    dense_hopf,
    dense_mult,
    dense_yd,
    mul_basis,
    s_matrix,
    unit_vec,
    yd_rho,
)
import reference
from test_work_counts import _count_fraction_products
from hopfbrauer import algebra
from hopfbrauer.algebra import StructureAlgebra, check_algebra_axioms
from hopfbrauer.e2 import _k_z2, build_c_e2, build_e2
from hopfbrauer.hopf import check_hopf_axioms, drinfeld_double
from hopfbrauer.linalg import Matrix, in_span, mat_det, sparse_sum, zero_vec
from hopfbrauer.sweedler import CFamilyDescriptor, aut_algebra, build_C, build_h4
from hopfbrauer.yd import (
    check_comodule,
    check_comodule_algebra_op,
    check_module,
    check_module_algebra,
    check_yd_algebra,
    fg_maps,
    is_h_azumaya,
    sharp_product,
)

# -- objects and seeded corruptions ----------------------------------------------

FACTORS = [(Q(2, 3), Q(1), Q(-1)), (Q(-7, 9), Q(1, 2), Q(-4)), (Q(5, 2), Q(7, 8), Q(-6))]


def _tower(d):
    rung = build_C(CFamilyDescriptor(*FACTORS[0]))
    for factor in FACTORS[1:]:
        if rung.dim == d:
            break
        rung = sharp_product(rung, build_C(CFamilyDescriptor(*factor)))
    assert rung.dim == d
    return rung


OBJECTS = {
    "C d=2": lambda: _tower(2),
    "C d=4": lambda: _tower(4),
    "C d=8": lambda: _tower(8),
    "E2 object": lambda: build_c_e2(Q(2, 7), Q(3, 5), Q(-1, 11)),
    "E2 # product": lambda: sharp_product(build_c_e2(Q(2), Q(3), Q(-1)), build_c_e2(Q(5), Q(1), Q(2))),
    "A_alpha": lambda: aut_algebra(Q(5, 2)),
}
HOPF = {
    "H4": build_h4,
    "E2": build_e2,
    "D(H4)": lambda: drinfeld_double(build_h4())[0],
}
DELTAS = [Q(1), Q(-1), Q(1, 2), Q(2), Q(-3, 2)]


def _matrix_with(m, r, c, delta):
    data = [list(row) for row in m.data]
    data[r][c] += delta
    return Matrix(data)


def _corrupt_yd(a, kind, seed):
    rng = random.Random(f"{kind}:{seed}")
    d, n = a.dim, a.hopf.dim
    delta = rng.choice(DELTAS)
    if kind == "action":
        action = list(action_matrices(a))
        k = rng.randrange(n)
        action[k] = _matrix_with(action[k], rng.randrange(d), rng.randrange(d), delta)
        return dense_yd(a.hopf, d, a.alg, action, coaction_rows(a))
    if kind == "coaction":
        coaction = [list(row) for row in coaction_rows(a)]
        coaction[rng.randrange(d)][rng.randrange(d * n)] += delta
        return dense_yd(a.hopf, d, a.alg, action_matrices(a), coaction)
    mult = dense_mult(a.alg)
    mult[rng.randrange(d)][rng.randrange(d)][rng.randrange(d)] += delta
    alg = dense_algebra(a.alg.basis, unit_vec(a.alg), mult, name="bad")
    return dense_yd(a.hopf, d, alg, action_matrices(a), coaction_rows(a))


def _corrupt_hopf(h, kind, seed):
    rng = random.Random(f"{kind}:{seed}")
    n = h.dim
    delta = rng.choice(DELTAS)
    alg, cop, antipode, antipode_inv = h.alg, dense_cop(h), s_matrix(h), s_matrix(h, inverse=True)
    if kind == "product":
        mult = dense_mult(alg)
        mult[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] += delta
        alg = dense_algebra(alg.basis, unit_vec(alg), mult, name="bad")
    elif kind == "coproduct":
        cop[rng.randrange(n)][rng.randrange(n * n)] += delta
    else:
        antipode = _matrix_with(antipode, rng.randrange(n), rng.randrange(n), delta)
        antipode_inv = None if mat_det(antipode) else antipode_inv
    return dense_hopf(alg, cop, counit_vec(h), antipode, antipode_inv, name="bad")


def _assert_matches_references(a):
    assert check_yd_algebra(a).failures == reference.yd_laws(a)
    assert check_algebra_axioms(a.alg).failures == reference.algebra_axioms(a.alg)


@pytest.mark.parametrize("name", OBJECTS)
@pytest.mark.parametrize("kind", ["action", "coaction", "product"])
def test_yd_failure_lists_match_the_itemized_loops(name, kind):
    base = OBJECTS[name]()
    assert check_yd_algebra(base).ok and check_algebra_axioms(base.alg).ok
    failing = 0
    for seed in range(2 if name == "A_alpha" else 4):
        bad = _corrupt_yd(base, kind, seed)
        _assert_matches_references(bad)
        failing += not check_yd_algebra(bad).ok or not check_algebra_axioms(bad.alg).ok
    assert failing


@pytest.mark.parametrize("name", HOPF)
@pytest.mark.parametrize("kind", ["product", "coproduct", "antipode"])
def test_hopf_failure_lists_match_the_itemized_loops(name, kind):
    base = HOPF[name]()
    failing = 0
    for seed in range(3):
        bad = _corrupt_hopf(base, kind, seed)
        failures = check_hopf_axioms(bad).failures
        assert failures == reference.hopf_axioms(bad)
        failing += bool(failures)
    assert failing


def _closure_rank(alg, gens):
    """Rank of the span of 1 and every e_g·v, closed by Fraction products."""
    span = []
    queue = [list(unit_vec(alg))]
    while queue:
        v = queue.pop()
        if any(v) and not (span and in_span(span, v)):
            span.append(v)
            queue += [alg.mul_vec(alg.basis_vec(g), v) for g in gens]
    return len(span)


@pytest.mark.parametrize("name", [*OBJECTS, *HOPF])
def test_generators_certify_each_object(name, monkeypatch):
    alg = OBJECTS[name]().alg if name in OBJECTS else HOPF[name]().alg
    fresh = StructureAlgebra.from_int(alg.basis, alg.int_unit, alg.int_sp[1],
                                      alg.int_sp[0], name=alg.name)
    calls = _count_fraction_products(monkeypatch)
    gens = fresh.generators
    assert gens is not None and fresh.associative
    assert calls == []
    assert list(gens) == sorted(set(gens)) and len(gens) < alg.dim
    monkeypatch.undo()
    assert _closure_rank(alg, gens) == alg.dim


def test_generating_sets_of_the_ladder_objects():
    assert [_tower(d).alg.generators for d in (2, 4, 8)] == [(1,), (1, 2), (1, 2, 4)]
    assert build_h4().alg.generators == (1, 2)
    assert len(build_e2().alg.generators) == 3
    assert len(aut_algebra(Q(5, 2)).alg.generators) == 7


def test_generating_sets_are_pinned():
    # the tuples the greedy closure gave before it ran on linalg.Echelon
    assert build_e2().alg.generators == (1, 2, 4)
    assert aut_algebra(Q(5, 2)).alg.generators == (0, 1, 2, 3, 4, 8, 12)
    assert drinfeld_double(build_h4())[0].alg.generators == (0, 1, 2, 5, 6, 8, 12)
    assert drinfeld_double(build_e2())[0].alg.generators == (0, 1, 2, 4, 6, 9, 10, 12, 16, 24, 32, 40)


# -- one case per prerequisite -----------------------------------------------------


def _c():
    return build_C(CFamilyDescriptor(Q(1), Q(2), Q(3)))


def _over(a, h):
    return dense_yd(h, a.dim, a.alg, action_matrices(a), coaction_rows(a))


def _h4_with(product=None, cop=None, counit=None):
    h4 = build_h4()
    alg = h4.alg
    if product is not None:
        mult = dense_mult(alg)
        product(mult)
        alg = dense_algebra(alg.basis, unit_vec(alg), mult, name="H4'")
    return dense_hopf(alg, cop or dense_cop(h4), counit or counit_vec(h4), s_matrix(h4), s_matrix(h4, inverse=True),
                       name="H4'", meta=h4.meta)


def _bump_mult(i, j, k, delta):
    def bump(mult):
        mult[i][j][k] += delta

    return bump


def _bump_cop(i, k, delta):
    cop = dense_cop(build_h4())
    cop[i][k] += delta
    return cop


def _law_failures(failures, marker, index_in):
    """The messages of one law whose looped index is in ``index_in``."""
    return [f for f in failures if marker in f and index_in(f)]


def test_unit_law_failing_gives_the_itemized_associativity_list():
    rung = _tower(8).alg
    mult = dense_mult(rung)
    mult[0][2][2] -= 1
    mult[0][2][3] += 2
    bad = dense_algebra(rung.basis, unit_vec(rung), mult)
    assert bad.generators is None and not bad.associative
    failures = check_algebra_axioms(bad).failures
    assert failures == reference.algebra_axioms(bad)
    assert any(f.startswith("associativity") for f in failures)


def test_module_law_falls_back_when_1_does_not_act_as_id():
    c = _c()
    action = list(action_matrices(c))
    action[0] = action[0] * 2
    bad = dense_yd(c.hopf, c.dim, c.alg, action, coaction_rows(c))
    failures = check_module(bad).failures
    assert failures[0] == "unit of H does not act as id"
    assert failures == reference.module(bad) and len(failures) > 1


def test_module_law_falls_back_when_h_is_not_associative():
    h = _h4_with(product=_bump_mult(3, 3, 0, Q(1)))  # (gh)² = 1 instead of 0
    assert not h.alg.associative
    bad = _over(_c(), h)
    assert check_module(bad).failures == reference.module(bad)
    assert check_yd_algebra(bad).failures == reference.yd_laws(bad)


def test_module_algebra_law_falls_back_when_h_acts_on_1_wrongly():
    c = _c()
    action = list(action_matrices(c))
    h_index = c.hopf.meta["h"]
    action[h_index] = _matrix_with(action[h_index], 1, 0, Q(1))  # h·1 = x
    bad = dense_yd(c.hopf, c.dim, c.alg, action, coaction_rows(c))
    failures = check_yd_algebra(bad).failures
    assert any("h·1 ≠ ε(h)1" in f for f in failures)
    assert failures == reference.yd_laws(bad)


def test_module_algebra_law_falls_back_when_delta_is_not_coassociative():
    h = _h4_with(cop=_bump_cop(3, 3 * 4 + 3, Q(1)))  # Δ(gh) gains gh ⊗ gh
    assert h.coalgebra_failures
    bad = _over(_c(), h)
    assert check_yd_algebra(bad).failures == reference.yd_laws(bad)


def test_module_algebra_law_falls_back_when_a_is_not_associative():
    c = _tower(4)
    mult = dense_mult(c.alg)
    mult[3][3][1] += 1
    alg = dense_algebra(c.alg.basis, unit_vec(c.alg), mult)
    bad = dense_yd(c.hopf, c.dim, alg, action_matrices(c), coaction_rows(c))
    assert not bad.alg.associative
    assert check_yd_algebra(bad).failures == reference.yd_laws(bad)


def test_comodule_algebra_law_falls_back_on_each_prerequisite():
    c = _tower(4)
    n = c.hopf.dim
    # ρ(1) ≠ 1⊗1: the unit row of the coaction gains 1 ⊗ g
    coaction = [list(row) for row in coaction_rows(c)]
    coaction[0][0 * n + 1] += 1
    # ρ is no comodule: ρ(e_3) loses its e_3 ⊗ 1 term
    broken = [list(row) for row in coaction_rows(c)]
    broken[3][3 * n + 0] = Q(0)
    for bad in (dense_yd(c.hopf, c.dim, c.alg, action_matrices(c), coaction),
                dense_yd(c.hopf, c.dim, c.alg, action_matrices(c), broken),
                _over(c, _h4_with(product=_bump_mult(3, 3, 0, Q(1))))):
        failures = check_yd_algebra(bad).failures
        assert failures == reference.yd_laws(bad)
        assert failures


def test_yd_condition_falls_back_when_the_module_law_fails():
    c = _tower(4)
    action = list(action_matrices(c))
    action[3] = _matrix_with(action[3], 0, 1, Q(1))  # g and h act as before, gh does not
    bad = dense_yd(c.hopf, c.dim, c.alg, action, coaction_rows(c))
    failures = check_yd_algebra(bad).failures
    assert failures == reference.yd_laws(bad)
    generators = c.hopf.alg.generators
    names = [c.hopf.alg.basis[i] for i in generators]
    yd_failures = [f for f in failures if "YD condition" in f]
    # the YD loop passes on the generators of H; only the fallback sees gh
    assert yd_failures and not _law_failures(yd_failures, "YD condition", lambda f: any(f"l={b}," in f for b in names))


def test_yd_condition_falls_back_when_h_is_not_a_hopf_algebra():
    h4 = build_h4()
    antipode = _matrix_with(s_matrix(h4), 2, 2, Q(1))  # S(h) = −gh + h
    h = dense_hopf(h4.alg, dense_cop(h4), counit_vec(h4), antipode, None, name="H4'", meta=h4.meta)
    assert not h.certified
    bad = _over(_c(), h)
    failures = check_yd_algebra(bad).failures
    assert failures == reference.yd_laws(bad)


@pytest.mark.parametrize("make_bad", [
    lambda: _h4_with(cop=_bump_cop(0, 1 * 4 + 1, Q(1))),  # Δ(1) ≠ 1⊗1
    lambda: _h4_with(counit=[Q(2), Q(1), Q(0), Q(0)]),  # ε(1) ≠ 1
    lambda: _h4_with(product=_bump_mult(3, 3, 0, Q(1))),  # H not associative
], ids=["Δ(1)", "ε(1)", "associativity"])
def test_hopf_multiplicativity_falls_back_on_each_prerequisite(make_bad):
    bad = make_bad()
    failures = check_hopf_axioms(bad).failures
    assert failures == reference.hopf_axioms(bad)
    assert failures


# The cases below hold on the generators and fail elsewhere, so only the
# fallback that a failed prerequisite forces finds them. k[x]/(x²) is
# generated by x alone, but 1 lies outside the span of x's non-unit words.


def _dual_numbers(name):
    mult = [[[Q(1), Q(0)], [Q(0), Q(1)]], [[Q(0), Q(1)], [Q(0), Q(0)]]]
    return dense_algebra(["1", "x"], [1, 0], mult, name=name)


def _trivial_hopf(cop_scale):
    """k with Δ(1) = cop_scale·1⊗1: no counit law unless cop_scale is 1."""
    alg = dense_algebra(["1"], [1], [[[Q(1)]]], name="k")
    return dense_hopf(alg, [[Q(cop_scale)]], [Q(1)], Matrix.identity(1), Matrix.identity(1), name="k")


def test_module_law_needs_1_to_act_as_id():
    alg = _dual_numbers("k[x]")
    h = dense_hopf(alg, [[1, 0, 0, 0], [0, 1, 1, 0]], [1, 0], Matrix.diag([1, -1]), name="k[x]")
    assert alg.generators == (1,)
    # 1 acts as 2, x as 0: e_x·(e_j·v) = (e_x e_j)·v holds, 1·(1·v) = 4v ≠ 2v
    bad = dense_yd(h, 1, action=[Matrix([[Q(2)]]), Matrix([[Q(0)]])])
    failures = check_module(bad).failures
    assert failures == reference.module(bad)
    assert failures == ["unit of H does not act as id", "action not multiplicative at (1,1)"]


def test_module_algebra_law_needs_the_counit_law():
    a = _dual_numbers("k[y]")
    h = _trivial_hopf(2)
    assert h.coalgebra_failures and a.generators == (1,)
    # 1 ∈ H acts as the projection onto k·1: the law holds at x = y, and at
    # x = y = 1 it reads 1 = 2·1
    bad = dense_yd(h, 2, a, [Matrix.diag([1, 0])])
    failures = check_module_algebra(bad).failures
    assert failures == reference.module_algebra(bad)
    assert "module-algebra law fails at (1; 1,1)" in failures


def test_comodule_algebra_law_needs_rho_of_1():
    a = _dual_numbers("k[y]")
    h = _trivial_hopf(1)
    # ρ(1) = 2·1⊗1 and ρ(y) = 0: ρ(yz) = ρ(y)ρ(z) holds, ρ(1·1) = 2 ≠ 4
    bad = dense_yd(h, 2, a, [Matrix.identity(2)], [[Q(2), Q(0)], [Q(0), Q(0)]])
    failures = check_yd_algebra(bad).failures
    assert failures == reference.yd_laws(bad)
    assert "H^op-comodule algebra over k: ρ not H^op-multiplicative at (1,1)" in failures


def test_comodule_algebra_law_needs_rho_of_1_on_a_comodule():
    a = _dual_numbers("k[y]")
    # kℤ₂-graded by A_0 = k(1 + y), A_1 = ky: a comodule with ρ(y) = y⊗g and
    # ρ(1) = (1 + y)⊗1 − y⊗g; ρ(yz) = ρ(y)ρ(z) holds, ρ(1·1) ≠ ρ(1)ρ(1)
    bad = dense_yd(_k_z2(), 2, a, coaction=[[Q(1), Q(0), Q(1), Q(-1)], [Q(0), Q(0), Q(0), Q(1)]])
    assert check_comodule(bad).ok
    failures = check_comodule_algebra_op(bad).failures
    assert failures == reference.comodule_algebra_op(bad)
    assert failures[0] == "ρ(1) ≠ 1⊗1" and "ρ not H^op-multiplicative at (1,1)" in failures


def test_hopf_multiplicativity_needs_delta_of_1():
    alg = _dual_numbers("k[x]")
    # Δ(1) = 2·1⊗1 and Δ(x) = 0: Δ(x e_j) = Δ(x)Δ(e_j), but Δ(1·1) ≠ Δ(1)Δ(1)
    bad = dense_hopf(alg, [[2, 0, 0, 0], [0, 0, 0, 0]], [1, 0], Matrix.identity(2), name="bad")
    failures = check_hopf_axioms(bad).failures
    assert failures == reference.hopf_axioms(bad)
    assert "Δ not multiplicative at (1,1)" in failures


def test_fallback_returns_the_itemized_list_when_the_generators_fail():
    seen = []

    def law(idx):
        idx = list(idx)
        seen.append(idx)
        yield from (f"fails at {i}" for i in idx if i == 2)

    alg = _tower(4).alg
    assert algebra.on_generators(law, alg, True) == ["fails at 2"]
    assert seen == [[1, 2], [0, 1, 2, 3]]
    seen.clear()
    assert algebra.on_generators(law, alg, False) == ["fails at 2"]
    assert seen == [[0, 1, 2, 3]]


# -- basis-change oracle ------------------------------------------------------------


def _dense_p(d, seed, lower=True):
    """U·D·L for unipotent U (upper) and L (lower) and a diagonal D, seeded;
    U·D alone unless ``lower``."""
    rng = random.Random(seed)

    def entry():
        return Q(rng.randint(-2, 2), rng.randint(1, 2))

    u = Matrix([[Q(1) if i == j else entry() if j > i else Q(0) for j in range(d)] for i in range(d)])
    low = Matrix([[Q(1) if i == j else entry() if j < i else Q(0) for j in range(d)] for i in range(d)])
    diag = Matrix.diag([Q(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 2)) for _ in range(d)])
    return u @ diag @ low if lower else u @ diag


def _rebase_algebra(alg, p, q):
    d = alg.dim
    mult = []
    for i in range(d):
        row = []
        for j in range(d):
            prod = sparse_sum(
                (p.data[k][i] * p.data[l][j], dict(mul_basis(alg, k, l)))
                for k in range(d) if p.data[k][i]
                for l in range(d) if p.data[l][j]
            )
            row.append(q.apply([prod.get(m, Q(0)) for m in range(d)]))
        mult.append(row)
    return dense_algebra(alg.basis, q.apply(unit_vec(alg)), mult, name=f"{alg.name}^P")


def _rebase_yd(a, seed):
    """A on the basis f_i = Σ_k P_ki e_k; H keeps its basis."""
    d, n = a.dim, a.hopf.dim
    p = _dense_p(d, seed)
    q = p.inverse()
    action = [q @ m @ p for m in action_matrices(a)]
    coaction = []
    for j in range(d):
        out = zero_vec(d * n)
        for l in range(d):
            if p.data[l][j]:
                for x, k, c in yd_rho(a)[l]:
                    for i in range(d):
                        out[i * n + k] += p.data[l][j] * q.data[i][x] * c
        coaction.append(out)
    return dense_yd(a.hopf, d, _rebase_algebra(a.alg, p, q), action, coaction), p


def _rebase_hopf(h, seed, lower):
    n = h.dim
    p = _dense_p(n, seed, lower)
    q = p.inverse()
    cop = []
    for i in range(n):
        out = zero_vec(n * n)
        for k in range(n):
            if p.data[k][i]:
                for a, b, c in cop_sparse(h, k):
                    for x in range(n):
                        for y in range(n):
                            out[x * n + y] += p.data[k][i] * q.data[x][a] * q.data[y][b] * c
        cop.append(out)
    counit = [sum((p.data[k][i] * counit_vec(h)[k] for k in range(n)), Q(0)) for i in range(n)]
    return dense_hopf(_rebase_algebra(h.alg, p, q), cop, counit, q @ s_matrix(h) @ p, q @ s_matrix(h, inverse=True) @ p,
                       name=f"{h.name}^P")


def test_basis_change_keeps_verdicts_and_scales_the_determinants():
    singular = sharp_product(build_C(CFamilyDescriptor(Q(3), Q(2), Q(3))), _tower(2))
    for seed, a in enumerate([_tower(2), _tower(4), _tower(8), singular]):
        b, p = _rebase_yd(a, seed)
        gens = b.alg.generators
        assert gens is not None and b.alg.associative
        # the rebased product is dense: every e_i e_j has more than one term
        assert sum(len(t) for row in b.alg.int_sp[1] for t in row) > sum(len(t) for row in a.alg.int_sp[1] for t in row)
        assert check_yd_algebra(b).failures == check_yd_algebra(a).failures == []
        assert check_algebra_axioms(b.alg).failures == check_algebra_axioms(a.alg).failures == []
        (fa, ga), (fb, gb) = fg_maps(a), fg_maps(b)
        scale = mat_det(p) ** (2 * a.dim)
        assert mat_det(fb) == scale * mat_det(fa) and mat_det(gb) == scale * mat_det(ga)
        assert is_h_azumaya(b) == is_h_azumaya(a) == (a is not singular)


# E(2) on a U·D·L basis has Δ(e_i) with up to 64 terms, and the Δ(e_i)Δ(e_j)
# products of check_hopf_axioms take seconds there, so it is rebased by U·D
@pytest.mark.parametrize("make, lower", [(build_h4, True), (build_e2, False)], ids=["H4", "E2"])
def test_basis_change_keeps_the_hopf_verdict(make, lower):
    h = make()
    for seed in range(2):
        b = _rebase_hopf(h, seed, lower)
        assert b.alg.generators is not None
        assert sum(map(len, b.int_cop[1])) > sum(map(len, h.int_cop[1]))
        assert b.certified and check_hopf_axioms(h).ok
