"""Exact construction and verification of Shapovalov elements in type A.

The package builds the canonical lowering elements of U(gl(m)) and
U(gl(m,n)) that send a highest weight vector to a highest weight vector on
the defining hyperplane, in several factor orderings and for every Borel
subalgebra with the standard even part, and verifies their properties inside
Verma modules with exact rational arithmetic.
"""

from .exact_algebra import (
    Hyperplane,
    Poly,
    Weight,
    bilinear_form,
    eval_at,
    generic_point,
    h_of_weight,
    reduce_mod,
    rho,
    sample_hyperplane,
)
from .pbw import GLAlgebra, UEAElement, gl, normal_order, superbracket
from .verma import VermaVector, act, is_highest_weight, vacuum, weight_basis
from .shuffles import Shuffle, diagram_data, enumerate_shuffles, simple_roots
from .hessenberg import (
    HessenbergMatrix,
    build_A_rs,
    build_B_rs,
    build_D,
    build_E,
    build_F_j,
    build_G_j,
    det_lr,
    split_at,
)
from .construct import (
    CaseDecomposition,
    ShapovalovElement,
    b_lambda,
    case1_decompose,
    case2_decompose,
    is_independent,
    is_minimal,
    kac_coefficient,
    lemma1768_check,
    square_isotropic_check,
    theta_borel,
    theta_for_root,
    theta_gl,
    theta_glmn_distinguished,
    theta_odd,
    theta_power,
    verify_highest_weight,
    verify_highest_weight_symbolic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
