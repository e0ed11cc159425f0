"""Deterministic work counts: the Drinfeld double is built without the dense
product, without linear solves and without a dense view of its tables, the
double's build, its quasitriangular check and the Hopf check of D(H₄) read
no Fraction structure constant, R_t and r_t take their inverses as (S⊗id)R
and r∘(S⊗id) without a solve, a Ψ transport checks its lazy cocycle once, and F, G, the
associativity check, the Yetter-Drinfeld axiom checks and the H-opposite
contract on integers without the Fraction product, as do F₀, G₀ and the F/G
decomposition residuals over E(2), and the H-Azumaya verdict hands F and G to
the determinant as integer rows without a dense d²×d² matrix, so a
regression to any of these shows here without timing noise. The
coquasitriangular check, the derivation of r⁻¹ in ``coqt_structure``, the
lazy-cocycle check and the cocycle twist read no Fraction structure
constant, and the witness and centralizer solvers, ``is_invertible`` and the
Hopf-morphism check make no dense product, and no builder or cross-check
calls the dense ``mul_vec``: only ``sandwich_matrix`` does. The double's
product, # products and H-opposites are built from integer tables
(``StructureAlgebra.from_int``): the double's 64-wide table never passes
through a dense constructor and is contracted on integers only.
``sandwich_matrix`` forms each e_i·e_k once, and
``fg_maps`` makes no sparse sum and no product per column and no product for
a zero e_h·e_y. On the d = 16 tower, the associativity check contracts only
on its generators, a passing Yetter-Drinfeld check loops over the
generators of A and of H only, and the module law is checked once per
object. A Hopf algebra that passed ``check_hopf_axioms`` is not checked
again for the Yetter-Drinfeld condition, an inverse is one elimination,
no object of the seed-7 report or the d = 16 rung has a dense action or
coaction view (the store is its one form), and an object built from another's integer
action or coaction shares it without validating or scaling it again. The
inverse, rank, kernel and solve of a matrix built from integer rows build
no dense view of it, and the YD centralizers build one echelon of the
sub-basis per call. The double of E(2) builds no dense
antipode view, the Hopf check makes no dense matrix product, and
``solve_columns`` hands no empty row to the echelon. The YD builders and
readers that work on the integer store (``INTEGER_PATHS``, among them the
cross-checks ``sharp_product_matches_presentation`` and ``validate_c_iso``)
make no Fraction product and read no Fraction structure constant in the
seed-7 report or on the d = 16 rung; ``sandwich_matrix`` and ``braiding_psi``
build no dense ``Matrix``, and ``sandwich_matrix`` makes only its d² dense
products e_i·e_k. R is expanded and scaled once per quasitriangular structure, into
its integer store ``QTStructure.int_pairs``, however often the builders read
it, the quasitriangular check of D(E(2)) builds no dense R or R⁻¹,
``push_qt`` builds no dense R of the structure it pushes, and the report's
phi-push, push and theta-push checks compare integer stores, building no
dense R at all. r_t is built, checked and read by ``induced_action`` from
its integer table, with no rescaling and no dense view. E(2) is built with
its S⁻¹, so no dense antipode is inverted. The
double of E(2) and its quasitriangular check, and the double of H₄ with its
Hopf and quasitriangular checks, call no dense constructor and build no
dense counit or antipode view of either double; the
seven builtins built at set-up make no linear solve (R_N⁻¹ is (S⊗id)R_N);
and ``FGContraction`` forms its ``right`` table only for a
reader of it, which ``f_value``, ``g_value`` and the F/G decomposition
residuals are not. The seed-7 report rescales no unit or counit where it reads
one (``int_unit`` and ``int_counit`` are the store), and there is no dense
``unit`` or ``counit`` view to read. A Fraction product is a contraction
of ``algebra._contract``, the one product loop, on a coefficient that is not
an int; a Fraction structure constant is read only by the dense ``mul_vec``."""

import linecache
import random
import re
import sys
from collections import Counter
from fractions import Fraction as Q

from conftest import action_matrices, dense_qt, r_vec, rank, s_matrix, unit_vec

import hopfbrauer
from hopfbrauer import algebra, hopf, linalg, sweedler, yd
from hopfbrauer.algebra import StructureAlgebra, check_algebra_axioms
from hopfbrauer.e2 import (
    build_c_e2,
    build_e2,
    build_RN,
    f0_g0_matrices,
    fg_decomposition_residuals,
    is_graded_central_simple,
    t_morphism,
    theta,
    witness_end_p,
)
from hopfbrauer.linalg import Matrix
from hopfbrauer.verify import run_verification
from hopfbrauer.yd import check_yd_algebra, fg_maps, h_opposite, is_h_azumaya, sharp_product


def test_drinfeld_double_of_e2_uses_no_dense_product_and_no_solve(monkeypatch):
    e2 = build_e2()
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(StructureAlgebra, "mul_vec", counted("mul_vec", StructureAlgebra.mul_vec))
    for name in ("antipode_from_bialgebra", "qt_structure", "solve_sparse"):
        monkeypatch.setattr(hopf, name, counted(name, getattr(hopf, name)))

    double, _ = hopf.drinfeld_double(e2)
    assert double.dim == 64
    assert counts == Counter()


def test_double_of_e2_builds_no_dense_view():
    double, canonical = hopf.drinfeld_double(build_e2())
    assert hopf.check_quasitriangular(double, canonical).ok
    # neither table has a dense view to build
    assert not hasattr(double.alg, "mult") and not hasattr(double, "cop")


def test_double_and_its_checks_read_no_fraction_structure_constant(monkeypatch):
    calls = _count_fraction_products(monkeypatch)
    vec_calls = _count_dense_products(monkeypatch)
    double, canonical = hopf.drinfeld_double(build_e2())
    assert hopf.check_quasitriangular(double, canonical).ok
    assert hopf.check_hopf_axioms(hopf.drinfeld_double(sweedler.build_h4())[0]).ok
    assert calls == [] and vec_calls == Counter()


def _dense_constructions(monkeypatch) -> list[str]:
    """Record the class of every call of a carrier class itself, which has
    no dense constructor left (``from_int`` builds without one)."""
    calls = []
    for cls in (StructureAlgebra, hopf.HopfAlgebra, yd.YDObject):
        def recorded(obj, *args, init=cls.__init__, **kwargs):
            calls.append(type(obj).__name__)
            return init(obj, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", recorded)
    return calls


def test_double_keeps_its_product_on_integers(monkeypatch):
    dense = _dense_constructions(monkeypatch)
    fractions = _count_fraction_products(monkeypatch)
    double, canonical = hopf.drinfeld_double(build_e2())
    assert hopf.check_quasitriangular(double, canonical).ok
    # the product went to from_int as integers and was contracted on them only
    assert fractions == [] and "unit" not in double.alg.__dict__
    assert double.dim == 64 and dense == []


def test_the_double_qt_check_builds_no_dense_r():
    double, canonical = hopf.drinfeld_double(build_e2())
    assert hopf.check_quasitriangular(double, canonical).ok
    assert "r" not in canonical.__dict__ and "r_inv" not in canonical.__dict__


def test_rt_and_rt_form_are_built_without_a_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(hopf, "solve_sparse", lambda *args: calls.append(args))
    for t in (Q(0), Q(3, 2), Q(-7)):
        sweedler.build_rt(t)
        sweedler.build_rt_form(t)
    assert calls == []


def test_psi_transport_checks_its_cocycle_once(monkeypatch):
    calls = []
    check = sweedler.check_lazy_cocycle

    def counted(sigma):
        calls.append(sigma.t)
        return check(sigma)

    monkeypatch.setattr(sweedler, "check_lazy_cocycle", counted)
    sweedler.psi_transport(sweedler.CFamilyDescriptor(Q(1), Q(0), Q(1)), Q(2))
    assert calls == [Q(2)]


def _ladder_rung_d8():
    """The d = 8 rung of the seed-7 azumaya_ladder tower."""
    factors = [(Q(2, 3), Q(1), Q(-1)), (Q(-7, 9), Q(1, 2), Q(-4)), (Q(5, 2), Q(7, 8), Q(-6))]
    rung = sweedler.build_C(sweedler.CFamilyDescriptor(*factors[0]))
    for factor in factors[1:]:
        rung = sharp_product(rung, sweedler.build_C(sweedler.CFamilyDescriptor(*factor)))
    assert rung.dim == 8
    return rung


def _ladder_rung_d16():
    """The d = 8 rung # C(3; 2, 5), a C tower of dimension 16."""
    return sharp_product(_ladder_rung_d8(), sweedler.build_C(sweedler.CFamilyDescriptor(Q(3), Q(2), Q(5))))


def test_associativity_check_contracts_on_the_generators(monkeypatch):
    rung = _ladder_rung_d16()
    calls = []
    contract = algebra._contract

    def counted(*args):
        calls.append(1)
        return contract(*args)

    monkeypatch.setattr(algebra, "_contract", counted)
    assert check_algebra_axioms(rung.alg).ok
    d, gens = rung.dim, 4
    # the unit law (2d), the span closure (d·|G|) and (g·e_j)·e_l = g·(e_j·e_l)
    # for g in G (2·|G|·d²), against 2d³ + 2d = 8,224 over every triple
    assert len(calls) <= 2 * gens * d * d + 2 * d + d * gens == 2144
    assert len(rung.alg.generators) == gens


def test_passing_yd_check_loops_over_the_generators(monkeypatch):
    rung = _ladder_rung_d16()
    visits = {}
    on_generators = yd.on_generators

    def recording(law, alg, ready):
        def recorded(idx):
            idx = list(idx)
            visits.setdefault(law.__name__, []).append(idx)
            return law(idx)

        return on_generators(recorded, alg, ready)

    monkeypatch.setattr(yd, "on_generators", recording)
    assert check_yd_algebra(rung).ok
    assert visits["module_algebra_law"] == visits["comodule_algebra_law"] == [list(rung.alg.generators)]
    assert visits["yd_law"] == [list(rung.hopf.alg.generators)] == [[1, 2]]
    assert list(rung.alg.generators) == [1, 2, 4, 8]


def _count_fraction_products(monkeypatch) -> list[list[str]]:
    """Record the names of the functions on the stack for every contraction
    of ``algebra._contract``, the one product loop, that multiplies a
    coefficient that is not an int, in x, y, ``out`` or the table it reads:
    a product on Fractions."""
    calls = []
    contract = algebra._contract
    tables = {}  # id(table) -> (table, whether every constant is an int)

    def counted(sp, x, y, out):
        if id(sp) not in tables:
            tables[id(sp)] = sp, all(type(c) is int for row in sp for cell in row for _, c in cell)
        if not (tables[id(sp)][1] and all(type(v) is int for v in (*x.values(), *y.values(), *out.values()))):
            frame, names = sys._getframe(1), []
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            calls.append(names)
        return contract(sp, x, y, out)

    monkeypatch.setattr(algebra, "_contract", counted)
    return calls


def test_fg_maps_and_associativity_make_no_fraction_product(monkeypatch):
    rung = _ladder_rung_d8()
    calls = _count_fraction_products(monkeypatch)
    fg_maps(rung)
    assert check_algebra_axioms(rung.alg).ok
    assert calls == []


def test_azumaya_verdict_builds_no_dense_fg_matrix(monkeypatch):
    rung = _ladder_rung_d8()
    shapes = []
    init = Matrix.__init__

    def recorded(m, data):
        init(m, data)
        shapes.append((m.rows, m.cols))

    monkeypatch.setattr(Matrix, "__init__", recorded)
    assert is_h_azumaya(rung)
    assert (rung.dim**2, rung.dim**2) not in shapes


def test_yd_checks_and_h_opposite_make_no_fraction_product(monkeypatch):
    rung = _ladder_rung_d8()
    e2_object = build_c_e2(Q(2, 7), Q(3, 5), Q(-1, 11))
    calls = _count_fraction_products(monkeypatch)
    assert check_yd_algebra(rung).ok
    assert check_yd_algebra(e2_object).ok
    assert check_yd_algebra(h_opposite(rung)).ok
    assert calls == []


def test_sharp_product_and_h_opposite_read_no_fraction_structure_constant(monkeypatch):
    factors = [sweedler.build_C(sweedler.CFamilyDescriptor(Q(2, 3), Q(1), Q(-1))), _ladder_rung_d8()]
    e2_factors = [build_c_e2(Q(2, 7), Q(3, 5), Q(-1, 11)), build_c_e2(Q(5), Q(1, 3), Q(2))]
    calls = _count_fraction_products(monkeypatch)
    vec_calls = _count_dense_products(monkeypatch)
    for left, right in (factors, e2_factors):
        h_opposite(sharp_product(left, right))
    assert calls == [] and vec_calls == Counter()


def test_graded_verdict_maps_make_no_fraction_product(monkeypatch):
    small = build_c_e2(Q(2), Q(3), Q(-1))
    objects = [small, sharp_product(small, build_c_e2(Q(5), Q(1), Q(2)))]
    vec_calls = Counter()
    mul_vec = StructureAlgebra.mul_vec

    def counted_mul_vec(alg, *args):
        vec_calls[alg.name] += 1
        return mul_vec(alg, *args)

    monkeypatch.setattr(StructureAlgebra, "mul_vec", counted_mul_vec)
    calls = _count_fraction_products(monkeypatch)
    for a in objects:
        f0_g0_matrices(a)
        assert is_graded_central_simple(a)
        # basis vectors are homogeneous, and e_1 is odd
        x, y, z = ([Q(int(i == k)) for i in range(a.dim)] for k in (0, a.dim - 1, 1))
        rf, rg = fg_decomposition_residuals(a, x, y, z)
        assert not any(rf) and not any(rg)
    assert [a.dim for a in objects] == [2, 4]
    assert calls == [] and vec_calls == Counter()


def _count_dense_products(monkeypatch) -> Counter:
    """Count the calls to the dense ``mul_vec``, by algebra name."""
    calls = Counter()
    mul_vec = StructureAlgebra.mul_vec

    def counted(alg, *args):
        calls[alg.name] += 1
        return mul_vec(alg, *args)

    monkeypatch.setattr(StructureAlgebra, "mul_vec", counted)
    return calls


def test_coquasitriangular_family_reads_no_fraction_structure_constant(monkeypatch):
    c01 = sweedler.build_C(sweedler.CFamilyDescriptor(Q(3, 4), Q(0), Q(1)))
    h4 = sweedler.build_h4()
    vec_calls = _count_dense_products(monkeypatch)
    calls = _count_fraction_products(monkeypatch)
    for t in (Q(0), Q(-3, 2), Q(7)):
        form = sweedler.build_rt_form(t)  # r∘(S⊗id) is derived and checked here
        assert hopf.check_coquasitriangular(h4, form).ok
        assert sweedler.check_lazy_cocycle(sweedler.build_sigma(t)).ok
        twisted = sweedler.cocycle_twist(c01, sweedler.build_sigma(t))
        assert "unit" not in twisted.alg.__dict__
    assert calls == [] and vec_calls == Counter()


def test_witness_solvers_and_morphism_checks_make_no_dense_product(monkeypatch):
    d = sweedler.CFamilyDescriptor(Q(2, 3), Q(5), Q(0))
    h4_carrier = sharp_product(sweedler.build_C(d), sweedler.build_C(sweedler.CFamilyDescriptor(-d.a, 0, 0)))
    e2_object = build_c_e2(Q(2, 7), Q(3, 5), Q(-1, 11))
    end_p = witness_end_p()
    morphisms = [sweedler.phi_iso(), t_morphism(), theta(Q(2), Q(-3, 4))]
    vec_calls = _count_dense_products(monkeypatch)
    _, _, beta = yd.strongly_inner_witness_h4(h4_carrier)
    assert beta == d.t * d.t / (4 * d.a)
    assert yd.normalized_implementer(h4_carrier, 1) is not None
    meta = e2_object.hopf.meta
    assert yd.inner_witness(e2_object, meta["x1"], meta["c"]) is not None
    assert yd.conjugation_implementer(e2_object, meta["c"]) is None
    assert not yd.strongly_inner_witness_e2(end_p).strongly_inner
    left, right = yd.yd_centralizers(h4_carrier, [unit_vec(h4_carrier.alg)])
    assert len(left) == len(right) == 4
    assert h4_carrier.alg.is_invertible(unit_vec(h4_carrier.alg))
    assert all(hopf.check_hopf_morphism(f).ok for f in morphisms)
    assert vec_calls == Counter()


def test_conjugation_implementer_draws_no_combination_it_does_not_test(monkeypatch):
    d = sweedler.CFamilyDescriptor(Q(2, 3), Q(5), Q(0))
    carrier = sharp_product(sweedler.build_C(d), sweedler.build_C(sweedler.CFamilyDescriptor(-d.a, 0, 0)))
    drawn = []
    generator = random.Random

    def recorded(seed):
        drawn.append(seed)
        return generator(seed)

    monkeypatch.setattr(random, "Random", recorded)
    u = yd.conjugation_implementer(carrier, 1)
    # a kernel vector or a pairwise sum is invertible, so no pseudo-random
    # combination is built
    assert u is not None and drawn == []


def test_only_sandwich_matrix_makes_a_dense_product(monkeypatch):
    build_e2()  # cached, so T and θ below are guarded on their own products
    mul_vec = StructureAlgebra.mul_vec
    callers = Counter()

    def guarded(alg, *args):
        caller = sys._getframe(1).f_code.co_name
        if caller != "sandwich_matrix":
            raise AssertionError(f"dense mul_vec called from {caller}")
        callers[caller] += 1
        return mul_vec(alg, *args)

    monkeypatch.setattr(StructureAlgebra, "mul_vec", guarded)
    d1, d2 = sweedler.CFamilyDescriptor(Q(3), Q(2), Q(5)), sweedler.CFamilyDescriptor(Q(-1, 2), Q(7, 3), Q(1, 4))
    assert not any(any(val) for _, val in sweedler.dh4_relations())
    assert check_yd_algebra(sweedler.quaternion_yd_algebra(sweedler.c_product(d1, d2))).ok
    h_alpha = sweedler.build_h_alpha(Q(5, 2))
    assert yd.check_module(h_alpha).ok and yd.check_comodule(h_alpha).ok
    e2 = build_e2.__wrapped__()
    assert hopf.check_hopf_axioms(e2).ok
    assert hopf.check_hopf_morphism(t_morphism.__wrapped__()).ok
    assert hopf.check_hopf_morphism(theta(Q(-3, 2), Q(5))).ok
    assert sweedler.sharp_product_matches_presentation(d1, d2)
    assert sweedler.validate_c_iso(d1, d1, Q(1))
    h4 = sweedler.build_h4()
    assert hopf.antipode_from_bialgebra(h4.alg, h4.int_cop, h4.int_counit) == s_matrix(h4)
    assert callers == Counter()
    assert algebra.is_central_simple(algebra.endomorphism_algebra(2))
    assert callers["sandwich_matrix"] > 0


def test_fg_table_makes_no_product_for_an_empty_cell(monkeypatch):
    a = sweedler.aut_algebra(Q(5, 2))
    products = []
    mul_int = StructureAlgebra.mul_int

    def counted(alg, *args):
        products.append(1)
        return mul_int(alg, *args)

    monkeypatch.setattr(StructureAlgebra, "mul_int", counted)
    fg = yd.FGContraction(a)
    # 768 of A_α's 1,024 cells e_k·(e_h·e_y) are 0, and none of them is formed
    assert sum(1 for ry in fg.right for rh in ry for cell in rh if not cell) == 768
    assert len(products) == 1024 - 768


def test_sandwich_matrix_forms_each_left_product_once(monkeypatch):
    algebras = [algebra.endomorphism_algebra(2), _ladder_rung_d8().alg]
    calls = _count_dense_products(monkeypatch)
    for alg in algebras:
        calls.clear()
        algebra.sandwich_matrix(alg)
        # d² dense products e_i·e_k; the d³ products (e_i·e_k)·e_j are on integers
        assert sum(calls.values()) == alg.dim**2


def test_fg_maps_makes_no_product_per_column(monkeypatch):
    rung = _ladder_rung_d8()
    d, n = rung.dim, rung.hopf.dim
    rho_terms = sum(len(row) for row in rung.int_rho[1])
    sums = []
    sparse_sum = yd.sparse_sum

    def counted_sum(terms):
        sums.append(1)
        return sparse_sum(terms)

    monkeypatch.setattr(yd, "sparse_sum", counted_sum)
    products = Counter()
    mul_int = StructureAlgebra.mul_int

    def counted(alg, *args):
        products[alg.name] += 1
        return mul_int(alg, *args)

    # FGContraction's table (one product per cell e_k·(e_h·e_y) ≠ 0, none for
    # the empty ones), f_left and g_left (one product per term of ρ(z) and of
    # ρ(x), over every (x, z)); nothing per column
    cells = sum(1 for row in rung.int_images[1] for hy in row for k in range(d) if rung.alg.mul_int({k: 1}, hy))
    assert cells < d * n * d
    monkeypatch.setattr(StructureAlgebra, "mul_int", counted)
    assert is_h_azumaya(rung)
    assert sums == []
    assert sum(products.values()) == cells + 2 * d * rho_terms


def test_a_checked_hopf_algebra_is_not_checked_again(monkeypatch):
    e2 = build_e2.__wrapped__()  # a fresh E(2): no verdict is cached on it yet
    c = build_c_e2(2, 3, -1)
    a = yd.YDObject.from_int(e2, c.dim, c.alg, c.int_images, c.int_rho)
    calls = []
    check = hopf.check_hopf_axioms

    def counted(h):
        calls.append(h.name)
        return check(h)

    monkeypatch.setattr(hopf, "check_hopf_axioms", counted)
    assert hopf.check_hopf_axioms(e2).ok
    assert yd.check_yd_condition(a).ok and check_yd_algebra(a).ok
    assert calls == ["E2"]


def test_module_law_is_checked_once_per_object(monkeypatch):
    rung = _ladder_rung_d16()
    laws = []
    on_generators = yd.on_generators

    def recording(law, alg, ready):
        laws.append(law.__name__)
        return on_generators(law, alg, ready)

    monkeypatch.setattr(yd, "on_generators", recording)
    assert check_yd_algebra(rung).ok
    assert laws.count("module_law") == 1
    assert yd.check_module(rung).ok and check_yd_algebra(rung).ok
    assert laws.count("module_law") == 1


def _counted_echelons(monkeypatch) -> list:
    """Record the rows of every ``linalg.Echelon`` built from then on."""
    calls = []

    class Counted(linalg.Echelon):
        def __init__(self, rows=()):
            rows = list(rows)
            calls.append(rows)
            super().__init__(rows)

    monkeypatch.setattr(linalg, "Echelon", Counted)
    return calls


def test_an_inverse_is_one_elimination(monkeypatch):
    calls = _counted_echelons(monkeypatch)
    m = Matrix([[2, 1, 0, Q(1, 3)], [1, 3, 1, 0], [0, 1, 4, -1], [5, 0, 0, 1]])
    assert m @ m.inverse() == Matrix.identity(4)
    assert [max(c for row in rows for c in row) + 1 for rows in calls] == [8]


def test_no_dense_action_or_coaction_view_is_built():
    # the object has one form, its stores; the tests read the action from them
    assert not any(hasattr(yd.YDObject, name) for name in ("action", "coaction"))
    assert run_verification(("all",), 7, 20)["summary"]["fail"] == 0
    rung = _ladder_rung_d16()
    opposite = h_opposite(rung)
    for a in (rung, opposite):
        assert check_yd_algebra(a).ok
        fg_maps(a)
        assert not any(hasattr(a, name) for name in ("action", "coaction"))
    assert action_matrices(rung)[1] == Matrix.diag([(-1) ** bin(j).count("1") for j in range(16)])


def test_derived_objects_share_the_store_they_keep(monkeypatch):
    c = _ladder_rung_d8()
    calls = []
    int_content = yd.int_content

    def counted(den, table, dim, width=0):
        calls.append(width)
        return int_content(den, table, dim, width)

    monkeypatch.setattr(yd, "int_content", counted)
    opposite = h_opposite(c)
    assert opposite.int_images is c.int_images and opposite.int_rho is c.int_rho
    assert calls == []
    induced = yd.induced_coaction(c, sweedler.build_rt(Q(3)))
    assert induced.int_images is c.int_images and calls == [4]  # only the new ρ is validated
    assert yd.induced_action(c, sweedler.build_rt_form(Q(3))).int_rho is c.int_rho


def test_derived_objects_share_the_integer_views():
    c = _ladder_rung_d8()
    opposite = h_opposite(c)
    assert opposite.int_images is c.int_images and opposite.int_rho is c.int_rho
    assert yd.induced_coaction(c, sweedler.build_rt(Q(3))).int_images is c.int_images
    assert yd.induced_action(c, sweedler.build_rt_form(Q(3))).int_rho is c.int_rho
    assert h_opposite(opposite).int_images is c.int_images


def test_solvers_read_integer_rows_without_a_dense_view():
    square = [(3, {0: 6, 1: 1}), (1, {1: 3, 2: 1}), (2, {2: 8, 3: -2}), (1, {0: 5, 3: 1})]
    # row 2 is row 0 + 2·row 1, so the kernel is two-dimensional
    wide = [(2, {0: 1, 3: -4}), (3, {1: 2, 2: 7}), (6, {0: 3, 1: 8, 2: 28, 3: -12})]
    cases = [
        (square, Matrix.inverse),
        (square, rank),
        (wide, rank),
        (wide, linalg.kernel_basis),
        (wide, lambda m: linalg.solve_linear(m, [Q(1), Q(-1, 3), Q(1, 3)])),
        (wide, lambda m: linalg.solve_linear(m, [Q(1), Q(0), Q(0)])),  # inconsistent
    ]
    for rows, op in cases:
        m = Matrix.from_int_rows(rows, 4)
        dense = Matrix([[Q(v.get(c, 0), den) for c in range(4)] for den, v in rows])
        assert op(m) == op(dense)
        assert "data" not in m.__dict__


def test_centralizers_build_one_echelon_of_the_sub_basis(monkeypatch):
    c = _ladder_rung_d8()
    calls = _counted_echelons(monkeypatch)
    # the first factor, a ⊗ 1 for a in C(2/3; 1, −1) # C(−7/9; 1/2, −4)
    left, right = yd.yd_centralizers(c, [c.alg.basis_vec(i) for i in (0, 2, 4, 6)])
    assert len(left) == len(right) == 2
    # the sub-basis once, then the left and the right solve
    assert len(calls) == 3 and calls[0] == [{0: 1}, {2: 1}, {4: 1}, {6: 1}]


def test_double_of_e2_builds_no_dense_antipode():
    double, _ = hopf.drinfeld_double(build_e2())
    assert "antipode" not in double.__dict__ and "antipode_inv" not in double.__dict__


def test_hopf_check_makes_no_dense_matrix_product(monkeypatch):
    calls = []
    matmul = Matrix.__matmul__

    def counted(a, b):
        calls.append((a.rows, a.cols, b.cols))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    for h in (sweedler.build_h4(), build_e2(), sweedler.build_dh4()[0]):
        assert hopf.check_hopf_axioms(h).ok
    assert calls == []


def test_solve_columns_hands_no_empty_row_to_the_echelon(monkeypatch):
    inserted = Counter()
    inside = []
    insert, solution = linalg.Echelon.insert, linalg._solution

    def counted(echelon, v):
        if inside and inside[-1]:
            inserted["empty" if not v else "row"] += 1
        return insert(echelon, v)

    def flagged(*args):
        # the echelons of solve_columns only, not those of solve_sparse
        inside.append(sys._getframe(1).f_code.co_name == "solve_columns")
        try:
            return solution(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(linalg.Echelon, "insert", counted)
    monkeypatch.setattr(linalg, "_solution", flagged)
    run_verification(("all",), 7, 20)
    assert inserted["row"] > 0 and inserted["empty"] == 0


# the builders and readers that write and read the integer YD store
INTEGER_PATHS = {
    "induced_coaction", "induced_action", "module_tensor", "sharp_product", "end_yd", "h_opposite",
    "e2_action_from_generators", "build_c_e2", "build_e2_module", "parity_object", "build_C", "braiding_psi",
    "inner_witness", "conjugation_implementer", "yd_centralizers", "sandwich_matrix", "cocycle_twist",
    "sharp_product_matches_presentation", "validate_c_iso",
}


def _callers(monkeypatch, owner, name: str) -> list[str]:
    """Record, for every call to owner.name, the integer-path functions on the stack."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name in INTEGER_PATHS:
                calls.append(frame.f_code.co_name)
            frame = frame.f_back
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def test_integer_paths_make_no_fraction_product_and_canonicalize_nothing(monkeypatch):
    products = _count_fraction_products(monkeypatch)
    dense = _dense_constructions(monkeypatch)
    run_verification(("all",), 7, 20)
    rung = _ladder_rung_d16()
    for a in (rung, h_opposite(rung)):
        assert check_yd_algebra(a).ok and is_h_azumaya(a)
    yd.end_yd(rung, "op")
    assert [name for names in products for name in names if name in INTEGER_PATHS] == [] and dense == []


def test_sandwich_matrix_and_braiding_build_no_dense_matrix(monkeypatch):
    built = _callers(monkeypatch, Matrix, "__init__")
    assert algebra.is_central_simple(algebra.endomorphism_algebra(2))
    assert not algebra.is_central_simple(_ladder_rung_d8().alg)  # a graded tower
    v, w = build_c_e2(Q(2), Q(3), Q(-1)), build_c_e2(Q(5), Q(1, 3), Q(2))
    psi = yd.braiding_psi(v, sharp_product(v, w), build_RN())
    assert psi.rows == 8 and "data" not in psi.__dict__
    assert built == []


def test_r_is_expanded_and_scaled_once_per_structure(monkeypatch):
    rn, v = build_RN(), build_c_e2(Q(2), Q(3), Q(-1))
    r = r_vec(rn)
    want = hopf.t2_from_vec(r, rn.hopf.dim)
    expanded = Counter()
    original = hopf.t2_from_vec
    monkeypatch.setattr(hopf, "t2_from_vec", lambda x, n: expanded.update([x is r]) or original(x, n))
    fresh = dense_qt(rn.hopf, r, r_vec(rn, inverse=True))  # the one expansion of each; the store is integer
    assert expanded == Counter({True: 1, False: 1})
    expanded.clear()
    for _ in range(3):
        yd.induced_coaction(v, fresh)
        yd.braiding_psi(v, v, fresh)
    assert not expanded and "r" not in fresh.__dict__ and "r_inv" not in fresh.__dict__
    assert fresh.pairs() == want and list(fresh.pairs()) == list(want)


HOPF_VIEWS = ("counit", "antipode", "antipode_inv")


def test_push_qt_builds_no_dense_r(monkeypatch):
    for t in (Q(0), Q(3, 2), Q(-5, 3)):
        rt = sweedler.build_rt(t)
        hopf.push_qt(sweedler.phi_iso(), rt)
        assert "r" not in rt.__dict__
    # the phi-push, push and theta-push checks compare integer stores: R has
    # no dense view left to build
    assert not any(hasattr(hopf.QTStructure, name) for name in ("r", "r_inv"))
    report = run_verification(("qt", "eq5.1"), 7, 20)
    assert report["summary"]["fail"] == 0


# a unit or counit rescaled where it is read, as the checks and the double
# did before the unit and the counit joined the integer store
UNIT_READ = re.compile(r"scaled\((sparse_vec\([\w.]*\b(co)?unit\)|eps|unit_h)\)")


def test_the_report_scales_no_unit_and_reads_no_unit_view_in_a_check(monkeypatch):
    # linalg.scaled is wrapped in every module that holds it; a call counts as
    # a unit or counit read when its caller's line scales one. The seed-7
    # report made 1,041 such calls before ``int_unit`` and ``int_counit``
    # (1,039 in the checks, 2 in ``drinfeld_double``), besides 1,876 others.
    scalings = Counter()
    scaled = linalg.scaled

    def counted(v):
        frame = sys._getframe(1)
        scalings[bool(UNIT_READ.search(linecache.getline(frame.f_code.co_filename, frame.f_lineno)))] += 1
        return scaled(v)

    for name in hopfbrauer.__dict__:
        module = getattr(hopfbrauer, name)
        if getattr(module, "scaled", None) is scaled:
            monkeypatch.setattr(module, "scaled", counted)
    # the unit and the counit have no dense view left to read, in a check or not
    assert not hasattr(StructureAlgebra, "unit") and not hasattr(hopf.HopfAlgebra, "counit")
    report = run_verification(("all",), 7, 20)
    assert report["summary"]["fail"] == 0
    assert scalings[False] > 0 and scalings[True] == 0


SCALINGS = ("common_denominator", "scaled", "scaled_rows", "scaled_vecs")


def test_coqt_readers_read_the_integer_store(monkeypatch):
    # r_t is built, checked and read with no least-common-denominator scaling
    c = sweedler.build_C(sweedler.CFamilyDescriptor(Q(2), Q(3), Q(-1)))
    calls = []
    for owner in (linalg, algebra, hopf, sweedler, yd):
        for name in SCALINGS:
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, lambda *args, name=name: calls.append(name))
    for t in (Q(0), Q(3, 2), Q(-5, 3)):
        ct = sweedler.build_rt_form(t)
        assert hopf.check_coquasitriangular(sweedler.build_h4(), ct).ok
        yd.induced_action(c, ct)
        assert "form" not in ct.__dict__ and "form_inv" not in ct.__dict__
    assert calls == []


def test_e2_is_built_with_its_inverse_antipode():
    e2 = build_e2.__wrapped__()
    assert "antipode" not in e2.__dict__
    # S∘S⁻¹ = id = S⁻¹∘S is among the antipode laws
    assert hopf.check_hopf_axioms(e2).ok


def test_doubles_and_their_checks_build_no_fraction_hopf_view(monkeypatch):
    calls = _dense_constructions(monkeypatch)
    d8, r8 = hopf.drinfeld_double(build_e2())
    assert hopf.check_quasitriangular(d8, r8).ok
    d4, r4 = hopf.drinfeld_double(sweedler.build_h4())
    assert hopf.check_hopf_axioms(d4).ok and hopf.check_quasitriangular(d4, r4).ok
    assert calls == []
    for double in (d8, d4):
        assert [name for name in HOPF_VIEWS if name in double.__dict__] == []


def test_setup_builtins_make_no_solve(monkeypatch):
    calls = []
    solve_sparse = linalg.solve_sparse
    for owner in (hopf, linalg):
        monkeypatch.setattr(owner, "solve_sparse", lambda *args: calls.append(args) or solve_sparse(*args))
    for build in (sweedler.build_h4, sweedler.build_h4_dual, sweedler.phi_iso, sweedler.build_dh4,
                  build_e2, build_RN, t_morphism):
        build.__wrapped__()
    assert calls == []


def test_fg_values_form_no_right_table(monkeypatch):
    a = build_c_e2(Q(2), Q(3), Q(-1))
    fg = yd.FGContraction(a)
    x, y, z = {0: Q(1, 2)}, {1: Q(3)}, {0: Q(1), 1: Q(-2, 5)}
    fg.f_value(x, y, z), fg.g_value(x, y, z)
    assert "right" not in fg.__dict__

    def refused(self):
        raise AssertionError("right table read")

    monkeypatch.setattr(yd.FGContraction, "right", property(refused))
    rf, rg = fg_decomposition_residuals(a, [Q(1), 0], [0, Q(1)], [Q(1), 0])
    assert not any(rf) and not any(rg)
