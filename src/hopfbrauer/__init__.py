"""Exact-arithmetic engine for Hopf algebras, Yetter-Drinfeld module
algebras and braided Brauer-group constructions over ℚ."""

from .algebra import (
    CheckReport,
    Grading,
    StructureAlgebra,
    center,
    check_algebra_axioms,
    endomorphism_algebra,
    is_central_simple,
    opposite_algebra,
    super_center,
)
from .e2 import (
    build_c_e2,
    build_e2,
    build_RN,
    bq_grad_member,
    is_graded_central_simple,
    kernel_witness,
    not_subgroup_demo,
    prop62_instance_check,
    restrict_along,
    t_morphism,
    theorem61_check,
    theta,
)
from .hopf import (
    HopfAlgebra,
    HopfMorphism,
    QTStructure,
    check_coquasitriangular,
    check_hopf_axioms,
    check_hopf_morphism,
    check_quasitriangular,
    drinfeld_double,
    dual_hopf,
    push_qt,
    qt_structure,
)
from .linalg import LinearSolution, Matrix, kron, mat_det, rational_is_square, solve_linear
from .sweedler import (
    BM0Invariant,
    CFamilyDescriptor,
    LazyCocycle,
    aut_algebra,
    aut_conjugate,
    build_C,
    build_dh4,
    build_h4,
    build_h4_dual,
    build_rt,
    build_rt_form,
    build_sigma,
    c_equivalent,
    c_membership,
    c_opposite,
    c_product,
    classify_bm0,
    cocycle_twist,
    intersection_report,
    phi_iso,
    phi_transport,
    psi_transport,
)
from .verify import run_verification
from .yd import (
    YDObject,
    braiding_psi,
    check_yd_algebra,
    check_yd_module,
    double_to_yd,
    end_yd,
    fg_maps,
    gradings,
    h_opposite,
    induced_action,
    induced_coaction,
    inner_witness,
    is_h_azumaya,
    sharp_product,
    strongly_inner_witness_e2,
    strongly_inner_witness_h4,
    yd_centralizers,
    yd_to_double,
)

__version__ = "0.1.0"
