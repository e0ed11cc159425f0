"""The integer echelon against the Fraction elimination it replaced.

``linalg.Echelon`` keeps a span as integer rows, each divided by its content
and with a positive pivot at its least column. The rational reduced row
echelon form is unique, so each row divided by its pivot must equal, with
exact ``==``, the row the Fraction RREF below gives, whatever the order of
the input rows. That reference was the package's elimination before the
integer echelon; it is kept here, as ``_det_bareiss`` is kept beside
``mat_det``. It is compared on the seeded solver cases of ``test_linalg``,
on every system the seed-7 report hands to ``solve_sparse`` or, as
integer column blocks, to ``solve_columns``, and on edge cases; the solutions read off both forms must agree too.
"""

import math
import sys
from collections import Counter
from fractions import Fraction as Q

import pytest

from test_linalg import SOLVER_SEEDS, _solver_case
from conftest import dense

from hopfbrauer.linalg import Echelon, LinearSolution, scaled, solve_columns, solve_sparse, sparse_vec, zero_vec
from hopfbrauer.verify import run_verification


def _sparse_rref(rows: list[dict[int, Q]], ncols: int) -> dict[int, dict[int, Q]]:
    """Reduced row echelon form of sparse rows; returns {pivot col: row}.

    Pivot rows are normalized to leading coefficient 1 and fully reduced
    against each other. Deterministic: pivots are chosen at the smallest
    column of each incoming row.
    """
    pivots: dict[int, dict[int, Q]] = {}
    for raw in rows:
        r = dict(raw)
        for c in sorted(set(r) & set(pivots)):
            f = r.get(c)
            if not f:
                continue
            for cc, vv in pivots[c].items():
                nv = r.get(cc, Q(0)) - f * vv
                if nv:
                    r[cc] = nv
                elif cc in r:
                    del r[cc]
        if not r:
            continue
        p = min(r)
        inv = 1 / r[p]
        r = {c: v * inv for c, v in r.items()}
        for q, prow in pivots.items():
            f = prow.get(p)
            if f:
                for cc, vv in r.items():
                    nv = prow.get(cc, Q(0)) - f * vv
                    if nv:
                        prow[cc] = nv
                    elif cc in prow:
                        del prow[cc]
        pivots[p] = r
    return pivots


def _reference_solve(rows, rhs, nunknowns: int) -> LinearSolution:
    """``solve_sparse`` as it read the Fraction RREF."""
    aug = [{**r, nunknowns: Q(b)} if b else dict(r) for r, b in zip(rows, rhs)]
    pivots = _sparse_rref(aug, nunknowns + 1)
    kernel = []
    for f in range(nunknowns):
        if f not in pivots:
            v = zero_vec(nunknowns)
            v[f] = Q(1)
            for p, prow in pivots.items():
                if prow.get(f):
                    v[p] = -prow[f]
            kernel.append(v)
    if nunknowns in pivots:
        return LinearSolution(None, kernel)
    particular = zero_vec(nunknowns)
    for p, prow in pivots.items():
        particular[p] = prow.get(nunknowns, Q(0))
    return LinearSolution(particular, kernel)


def _normalized(rows: list[dict[int, Q]]) -> dict[int, dict[int, Q]]:
    """The integer echelon of the rows, each row divided by its pivot."""
    echelon = Echelon(scaled(r)[0] for r in rows)
    for p, row in echelon.rows.items():
        assert p == min(row) and row[p] > 0 and math.gcd(*row.values()) == 1
        assert all(c == p or c not in echelon.rows for c in row)
    return {p: {c: Q(x, row[p]) for c, x in row.items()} for p, row in echelon.rows.items()}


def _assert_agrees(rows, rhs, nunknowns: int) -> None:
    aug = [{**r, nunknowns: Q(b)} if b else dict(r) for r, b in zip(rows, rhs)]
    assert _normalized(aug) == _sparse_rref(aug, nunknowns + 1)
    assert _normalized(list(reversed(aug))) == _sparse_rref(aug, nunknowns + 1)
    got, want = solve_sparse(rows, rhs, nunknowns), _reference_solve(rows, rhs, nunknowns)
    assert (got.particular, got.kernel) == (want.particular, want.kernel)


@pytest.mark.parametrize("seed", SOLVER_SEEDS)
def test_echelon_matches_the_fraction_rref_on_the_solver_cases(seed):
    m = _solver_case(seed)
    rows = [sparse_vec(r) for r in dense(m)]
    _assert_agrees(rows, [0] * m.rows, m.cols)
    _assert_agrees(rows, m.apply([Q(1, k + 1) for k in range(m.cols)]), m.cols)  # consistent
    _assert_agrees(rows, [Q(seed - k, 10**6 - 7 * k) for k in range(m.rows)], m.cols)


EDGE_CASES = {
    "no rows": ([], [], 3),
    "no unknowns": ([{}, {}], [Q(0), Q(1)], 0),
    "all-zero rows": ([{}, {}, {}], [0, 0, 0], 2),
    "an all-zero row with a nonzero rhs": ([{0: Q(1)}, {}], [Q(2), Q(3)], 2),
    "a duplicated row": ([{0: Q(2), 2: Q(-3, 7)}, {0: Q(2), 2: Q(-3, 7)}, {1: Q(5)}], [Q(1), Q(1), Q(0)], 3),
    "an inconsistent rhs": ([{0: Q(1), 1: Q(1)}, {0: Q(2), 1: Q(2)}], [Q(1), Q(3)], 2),
    "denominators near 10⁶": (
        [
            {0: Q(999_983, 999_979), 1: Q(-1, 999_961), 3: Q(7, 1_000_003)},
            {1: Q(999_959, 999_953), 2: Q(3, 999_983)},
            {0: Q(1, 999_979), 2: Q(-999_961, 999_983), 3: Q(1)},
        ],
        [Q(1, 999_953), Q(0), Q(-5, 999_979)],
        4,
    ),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_echelon_matches_the_fraction_rref_on_edge_cases(case):
    _assert_agrees(*EDGE_CASES[case])


def _column_system(blocks, unknowns: int):
    """The rows and right-hand sides of the integer ``solve_columns`` blocks
    as Fractions, one row per index a column or the target reaches."""
    rows, rhs = [], []
    for cols, target in blocks:
        block = {k: {} for k in target}
        for j, col in enumerate(cols):
            for k, v in col.items():
                block.setdefault(k, {})[j] = Q(v)
        for k in sorted(block):
            rows.append(block[k])
            rhs.append(Q(target.get(k, 0)))
    return rows, rhs, unknowns


def test_echelon_matches_the_fraction_rref_on_every_seed7_solve(monkeypatch):
    systems, callers = [], Counter()

    def recorded(rows, rhs, nunknowns):
        systems.append((rows, rhs, nunknowns))
        return solve_sparse(rows, rhs, nunknowns)

    def recorded_columns(blocks, unknowns):
        callers[sys._getframe(1).f_code.co_name] += 1
        blocks = list(blocks)
        got, system = solve_columns(blocks, unknowns), _column_system(blocks, unknowns)
        want = _reference_solve(*system)
        assert (got.particular, got.kernel) == (want.particular, want.kernel)
        systems.append(system)
        return got

    # every module that imported a solver, wherever a caller lives
    for name, module in list(sys.modules.items()):
        if name.startswith("hopfbrauer"):
            for solver, stand_in in ((solve_sparse, recorded), (solve_columns, recorded_columns)):
                if getattr(module, solver.__name__, None) is solver:
                    monkeypatch.setattr(module, solver.__name__, stand_in)
    run_verification(("all",), 7, 20)
    assert len(systems) > 100
    # the p(x₁) and p(x₂) systems of End(P)'s two branches, from one solver
    assert callers["strong_inner_p"] >= 4
    assert {"inner_witness", "conjugation_implementer", "super_center"} <= set(callers), callers
    for system in systems:
        _assert_agrees(*system)


def test_reduce_is_zero_exactly_on_the_span():
    echelon = Echelon([{0: 2, 2: 4}, {1: -3, 2: 6}])
    assert echelon.rows == {0: {0: 1, 2: 2}, 1: {1: 1, 2: -2}}
    assert echelon.reduce({0: 1, 1: 1}) == {}
    assert echelon.reduce({2: 5}) == {2: 5}
    assert echelon.insert({0: 1, 1: 1}) is None
    assert echelon.insert({2: -5}) == {2: 1} and echelon.rows == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}


def test_explicit_zero_coefficients_are_no_entries():
    assert Echelon([{0: 0, 1: 2}, {2: 0}]).rows == {1: {1: 1}}
    sol = solve_sparse([{0: Q(0), 1: Q(2)}], [Q(4)], 2)
    assert sol.particular == [0, 2] and sol.kernel == [[1, 0]]
