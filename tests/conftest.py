"""Deterministic hypothesis for the test suite: every ``@given`` test draws
the same examples on every run, with no per-example deadline, and no result
depends on the ``.hypothesis/`` example database. Each test keeps its own
``max_examples``. ``dense_mult`` and ``dense_cop`` write an algebra's product
and a Hopf algebra's coproduct out as the dense tensors the constructors
take, for tests that corrupt one entry or compare with a dense reference;
``sweedler2`` is (Δ⊗id)Δ on Fractions, the reference for ``int_cop2``."""

from hypothesis import settings

from hopfbrauer.linalg import dense_vec

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def dense_mult(alg):
    """The dense product tensor of ``alg``: [i][j] is the coefficient vector
    of e_i·e_j. The lists are new, so a test may corrupt them."""
    return [[dense_vec(dict(alg.mul_basis(i, j)), alg.dim) for j in range(alg.dim)] for i in range(alg.dim)]


def dense_cop(h):
    """The dense coproduct of ``h``: [i][p·dim + q] is the coefficient of
    e_p⊗e_q in Δ(e_i), in new lists as ``dense_mult`` gives them."""
    n = h.dim
    return [dense_vec({p * n + q: c for p, q, c in h.cop_sparse(i)}, n * n) for i in range(n)]


def sweedler2(h, i):
    """(Δ⊗id)Δ(e_i) as (l1, l2, l3, c) terms, every c a nonzero Fraction,
    contracted on ``cop_sparse``."""
    acc = {}
    for p, q, c in h.cop_sparse(i):
        for u, v, d in h.cop_sparse(p):
            acc[u, v, q] = acc.get((u, v, q), 0) + c * d
    return tuple((*key, c) for key, c in acc.items() if c)
