"""One Fraction reference per package kernel.

Each function recomputes what one kernel of ``hopfbrauer`` decides from its
defining identity, over ℚ and itemized over every basis index, with no
generator certificate, no integer scaling and no package kernel
(``tests/test_dead_helpers.py`` keeps it so). It reads the stores only
through ``conftest``'s readers, so a test that compares a kernel with its
reference compares two computations. A law's reference returns the
kernel's failure messages in the kernel's order, each merged part prefixed
by its report title as ``CheckReport.merge`` does. The ``mat_*`` functions
are the references of the ``Matrix`` operations: they read a matrix through
``conftest.dense`` and compute entry by entry on its Fraction rows.

Two determinant references stay beside ``mat_det``, as they check what no
reference here can: ``test_linalg._det_bareiss`` is fraction-free Bareiss
elimination, an independent algorithm, and
``test_verdict_kernels._mat_det_reference`` is ``mat_det``'s elimination
with each pivot row's content kept, so it checks the division by that
content g, the g multiplied back and the pivot order.
"""

from fractions import Fraction
from functools import cache
from itertools import product
from math import prod

from conftest import (
    acc,
    cop_sparse,
    counit_vec,
    dense,
    mul_basis,
    mul_sparse,
    s_cols,
    sweedler2,
    unit_vec,
    yd_images,
    yd_rho,
)
from hopfbrauer.linalg import Matrix, sparse_sum, sparse_vec

ZERO = Fraction(0)


def _merged(title, failures):
    return [f"{title}: {f}" for f in failures]


def _act(images, u, v):
    """u·v for u = Σ u_i·e_i in H and v = Σ v_y·e_y in the object."""
    out = {}
    for i, cu in u.items():
        for y, cv in v.items():
            w = cu * cv
            for k, c in images[y][i].items():
                acc(out, k, w * c)
    return out


def _apply(cols, v):
    """Σ v_q·cols[q] for a map given by its columns."""
    return sparse_sum((c, cols[q]) for q, c in v.items())


def _tensor(u, w):
    return {(p, q): cp * cq for p, cp in u.items() for q, cq in w.items()}


def _coact(rho, v):
    """ρ(v) as {(a, k): c} for c·e_a ⊗ e_k."""
    out = {}
    for j, cv in v.items():
        for a, k, c in rho[j]:
            acc(out, (a, k), cv * c)
    return out


def tensor_product(alg, x, y):
    """``_t2_int`` and ``_t3_int``: x·y in H⊗H or H⊗H⊗H for x and y keyed by
    tuples of basis indices, factor by factor."""
    out = {}
    for xk, c in x.items():
        for yk, d in y.items():
            for terms in product(*(mul_basis(alg, i, k) for i, k in zip(xk, yk))):
                acc(out, tuple(p for p, _ in terms), c * d * prod(cp for _, cp in terms))
    return out


# -- algebra and Hopf axioms ---------------------------------------------------


def algebra_axioms(a):
    """``check_algebra_axioms``: 1·e_i = e_i = e_i·1 at each i, then
    (e_i e_j) e_l = e_i (e_j e_l) at every triple."""
    unit = sparse_vec(unit_vec(a))
    out = [f"unit law fails at basis element {b}" for i, b in enumerate(a.basis)
           if not mul_sparse(a, unit, {i: 1}) == {i: 1} == mul_sparse(a, {i: 1}, unit)]
    for i in range(a.dim):
        for j in range(a.dim):
            ij = dict(mul_basis(a, i, j))
            for l in range(a.dim):
                if mul_sparse(a, ij, {l: 1}) != mul_sparse(a, {i: 1}, dict(mul_basis(a, j, l))):
                    out.append(f"associativity fails at triple ({i},{j},{l})")
    return out


def antipode_laws(h):
    """``antipode_failures``: m(S⊗id)Δ(e_z) and m(id⊗S)Δ(e_z) against
    ε(e_z)·1 at each z, then S∘S⁻¹ and S⁻¹∘S against the identity."""
    alg, counit, unit = h.alg, counit_vec(h), sparse_vec(unit_vec(h.alg))
    s, t = s_cols(h), s_cols(h, inverse=True)
    out = []
    for z, b in enumerate(alg.basis):
        left, right = {}, {}
        for u, v, c in cop_sparse(h, z):
            mul_sparse(alg, {k: c * x for k, x in s[u].items()}, {v: 1}, left)
            mul_sparse(alg, {u: c}, s[v], right)
        target = {k: counit[z] * x for k, x in unit.items()} if counit[z] else {}
        for side, got in (("m(S⊗id)Δ", left), ("m(id⊗S)Δ", right)):
            if got != target:
                out.append(f"{side} fails at {b}")
    for x, y, label in ((s, t, "S∘S⁻¹"), (t, s, "S⁻¹∘S")):
        if any(_apply(x, y[z]) != {z: 1} for z in range(h.dim)):
            out.append(f"{label} ≠ id")
    return out


def hopf_axioms(h):
    """``check_hopf_axioms``: the algebra axioms; coassociativity at each
    e_i, then the two counit laws at each e_i; Δ(1) = 1⊗1 and ε(1) = 1;
    Δ and ε multiplicative at every pair; the antipode laws."""
    alg, n, counit = h.alg, h.dim, counit_vec(h)
    cop = [{(p, q): c for p, q, c in cop_sparse(h, i)} for i in range(n)]
    out = _merged(f"algebra axioms ({alg.name or 'unnamed'})", algebra_axioms(alg))
    for i in range(n):
        rhs = {}
        for (p, q), c in cop[i].items():
            for (u, v), d in cop[q].items():
                acc(rhs, (p, u, v), c * d)
        if {t[:3]: t[3] for t in sweedler2(h, i)} != rhs:
            out.append(f"coassociativity fails at {alg.basis[i]}")
    for i, b in enumerate(alg.basis):
        for side, k in (("ε⊗id", 0), ("id⊗ε", 1)):
            image = {}
            for key, c in cop[i].items():
                acc(image, key[1 - k], c * counit[key[k]])
            if image != {i: 1}:
                out.append(f"({side})Δ fails at {b}")
    unit = sparse_vec(unit_vec(alg))
    cop_unit = {}
    for i, u in unit.items():
        for key, c in cop[i].items():
            acc(cop_unit, key, u * c)
    if cop_unit != _tensor(unit, unit):
        out.append("Δ(1) ≠ 1⊗1")
    if sum(u * counit[i] for i, u in unit.items()) != 1:
        out.append("ε(1) ≠ 1")
    for i in range(n):
        for j in range(n):
            ij, lhs = mul_basis(alg, i, j), {}
            for k, c in ij:
                for key, d in cop[k].items():
                    acc(lhs, key, c * d)
            if lhs != tensor_product(alg, cop[i], cop[j]):
                out.append(f"Δ not multiplicative at ({alg.basis[i]},{alg.basis[j]})")
            if sum(c * counit[k] for k, c in ij) != counit[i] * counit[j]:
                out.append(f"ε not multiplicative at ({alg.basis[i]},{alg.basis[j]})")
    return out + antipode_laws(h)


# -- Yetter-Drinfeld laws ------------------------------------------------------


def module(m):
    """``check_module``: 1 acts as the identity, then e_i·(e_j·v) = (e_i e_j)·v
    on every basis v, at each pair (i, j)."""
    h, images = m.hopf, yd_images(m)
    unit = sparse_vec(unit_vec(h.alg))
    out = [] if all(_act(images, unit, {y: 1}) == {y: 1} for y in range(m.dim)) else ["unit of H does not act as id"]
    for i in range(h.dim):
        for j in range(h.dim):
            ij = dict(mul_basis(h.alg, i, j))
            if any(_act(images, {i: 1}, images[y][j]) != _act(images, ij, {y: 1}) for y in range(m.dim)):
                out.append(f"action not multiplicative at ({h.alg.basis[i]},{h.alg.basis[j]})")
    return out


def module_algebra(a):
    """``check_module_algebra``: the module law, then for each e_i of H,
    e_i·1 = ε(e_i)1 and e_i·(xy) = (e_i₍₁₎·x)(e_i₍₂₎·y) at every basis pair."""
    h, alg, images = a.hopf, a.alg, yd_images(a)
    unit, counit = sparse_vec(unit_vec(alg)), counit_vec(h)
    out = _merged(f"H-module over {h.name}", module(a))
    for i in range(h.dim):
        if _act(images, {i: 1}, unit) != ({k: counit[i] * c for k, c in unit.items()} if counit[i] else {}):
            out.append(f"h·1 ≠ ε(h)1 at {h.alg.basis[i]}")
        for x in range(alg.dim):
            for y in range(alg.dim):
                rhs = {}
                for p, q, c in cop_sparse(h, i):
                    mul_sparse(alg, {k: c * v for k, v in images[x][p].items()}, images[y][q], rhs)
                if _act(images, {i: 1}, dict(mul_basis(alg, x, y))) != rhs:
                    out.append(f"module-algebra law fails at ({h.alg.basis[i]}; {alg.basis[x]},{alg.basis[y]})")
    return out


def comodule(m):
    """``check_comodule``: (id⊗ε)ρ(e_j) = e_j and (ρ⊗id)ρ(e_j) = (id⊗Δ)ρ(e_j)
    at each j."""
    h, rho, counit = m.hopf, yd_rho(m), counit_vec(m.hopf)
    out = []
    for j in range(m.dim):
        image, lhs, rhs = {}, {}, {}
        for a, k, c in rho[j]:
            acc(image, a, c * counit[k])
            for b, l, d in rho[a]:
                acc(lhs, (b, l, k), c * d)
            for p, q, d in cop_sparse(h, k):
                acc(rhs, (a, p, q), c * d)
        if image != {j: 1}:
            out.append(f"(id⊗ε)ρ fails at index {j}")
        if lhs != rhs:
            out.append(f"coassociativity of ρ fails at index {j}")
    return out


def comodule_algebra_op(a):
    """``check_comodule_algebra_op``: the comodule laws, ρ(1) = 1⊗1, then
    ρ(xy) = x₍₀₎y₍₀₎ ⊗ y₍₁₎x₍₁₎ at every basis pair."""
    h, alg, rho = a.hopf, a.alg, yd_rho(a)
    unit, hunit = sparse_vec(unit_vec(alg)), sparse_vec(unit_vec(h.alg))
    out = _merged(f"H-comodule over {h.name}", comodule(a))
    if _coact(rho, unit) != _tensor(unit, hunit):
        out.append("ρ(1) ≠ 1⊗1")
    for x in range(alg.dim):
        for y in range(alg.dim):
            rhs = {}
            for ax, kx, cx in rho[x]:
                for ay, ky, cy in rho[y]:
                    for p, cp in mul_basis(alg, ax, ay):
                        for q, cq in mul_basis(h.alg, ky, kx):
                            acc(rhs, (p, q), cx * cy * cp * cq)
            if _coact(rho, dict(mul_basis(alg, x, y))) != rhs:
                out.append(f"ρ not H^op-multiplicative at ({alg.basis[x]},{alg.basis[y]})")
    return out


def yd_condition(m):
    """``check_yd_condition``: ρ(l·b) = l₍₂₎·b₍₀₎ ⊗ (l₍₃₎ b₍₁₎) S⁻¹(l₍₁₎) at
    every basis pair (l, b)."""
    h, images, rho = m.hopf, yd_images(m), yd_rho(m)
    s_inv = s_cols(h, inverse=True)
    h_part = cache(lambda l3, k, l1: mul_sparse(h.alg, dict(mul_basis(h.alg, l3, k)), s_inv[l1]))
    out = []
    for li in range(h.dim):
        for b in range(m.dim):
            rhs = {}
            for l1, l2, l3, c in sweedler2(h, li):
                for a, k, d in rho[b]:
                    for p, cp in images[a][l2].items():
                        for q, cq in h_part(l3, k, l1).items():
                            acc(rhs, (p, q), c * d * cp * cq)
            if _coact(rho, images[b][li]) != rhs:
                out.append(f"YD condition fails at (l={h.alg.basis[li]}, b=index {b})")
    return out


def yd_laws(a):
    """``check_yd_algebra``, or ``check_yd_module`` when ``a`` has no product:
    the three parts merged in the kernel's order."""
    name = a.hopf.name
    if a.alg is None:
        parts = ((f"H-module over {name}", module), (f"H-comodule over {name}", comodule))
    else:
        parts = ((f"module algebra over {name}", module_algebra),
                 (f"H^op-comodule algebra over {name}", comodule_algebra_op))
    parts += ((f"Yetter-Drinfeld condition over {name}", yd_condition),)
    return [f for title, law in parts for f in _merged(title, law(a))]


# -- structure maps ------------------------------------------------------------


def fg(a):
    """``fg_maps``: F(x#y)(z) = (x z₍₀₎)(z₍₁₎·y) and G(x#y)(z) = (x₍₀₎(x₍₁₎·z))·y,
    bracketed as defined, at column x·d + y and rows z·d + p."""
    alg, d, images, rho = a.alg, a.dim, yd_images(a), yd_rho(a)
    f, g = ([[ZERO] * (d * d) for _ in range(d * d)] for _ in range(2))
    for x in range(d):
        for z in range(d):
            f_left = [(z1, mul_sparse(alg, {x: c}, {z0: 1})) for z0, z1, c in rho[z]]
            g_left = {}
            for x0, x1, c in rho[x]:
                mul_sparse(alg, {x0: c}, images[z][x1], g_left)
            for y in range(d):
                fv = {}
                for z1, u in f_left:
                    mul_sparse(alg, u, images[y][z1], fv)
                for m, v in ((f, fv), (g, mul_sparse(alg, g_left, {y: 1}))):
                    for p, c in v.items():
                        m[z * d + p][x * d + y] = c
    return Matrix(f), Matrix(g)


def h_opposite_table(a):
    """``h_opposite``'s product x∘y = y₍₀₎(y₍₁₎·x): table[i][j] is the dense
    vector of e_i∘e_j."""
    alg, images, rho = a.alg, yd_images(a), yd_rho(a)

    def product(i, j):
        v = {}
        for b, k, c in rho[j]:
            mul_sparse(alg, {b: c}, images[i][k], v)
        return [v.get(p, ZERO) for p in range(alg.dim)]

    return [[product(i, j) for j in range(alg.dim)] for i in range(alg.dim)]


def sandwich(a):
    """``sandwich_matrix``: column i·d + j maps e_k to (e_i e_k) e_j, at rows
    k·d + p."""
    d = a.dim
    m = [[ZERO] * (d * d) for _ in range(d * d)]
    for i in range(d):
        for k in range(d):
            ik = dict(mul_basis(a, i, k))
            for j in range(d):
                for p, c in mul_sparse(a, ik, {j: 1}).items():
                    m[k * d + p][i * d + j] = c
    return Matrix(m)


def e2_action(c, x1, x2):
    """``e2_action_from_generators`` over ℚ: images[j][k] = c^a x₁^b x₂^d·e_j
    at k = a + 2b + 4d, each monomial applied to e_j on its own, the
    generators given by their columns {index: Fraction}."""
    def image(k, j):
        v = {j: Fraction(1)}
        for bit, cols in ((4, x2), (2, x1), (1, c)):
            if k & bit:
                v = _apply(cols, v)
        return v

    return [[image(k, j) for k in range(8)] for j in range(len(c))]


# -- Matrix: each operation on the dense Fraction rows that ``conftest.dense``
# reads, entry by entry, with no integer row


def mat_sum(a, b, sign=1):
    """The rows of a + sign·b."""
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(dense(a), dense(b))]


def mat_scale(a, c):
    """The rows of c·a."""
    return [[c * x for x in row] for row in dense(a)]


def mat_product(a, b):
    """The rows of a·b, each entry Σ_k a_ik·b_kj."""
    rb = dense(b)
    return [[sum((x * rb[k][j] for k, x in enumerate(row)), ZERO) for j in range(b.cols)] for row in dense(a)]


def mat_apply(a, v):
    """a·v for a list v of rationals."""
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in dense(a)]


def mat_kron(a, b):
    """The rows of a ⊗ b, row (i, k) and column (j, l) at i·rows(b) + k and
    j·cols(b) + l."""
    return [[x * y for x in ra for y in rb] for ra in dense(a) for rb in dense(b)]


def mat_inverse(a):
    """The rows of a⁻¹ by Gauss-Jordan elimination of [a | I] over ℚ, None if
    a is singular."""
    n = a.rows
    rows = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(dense(a))]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]
