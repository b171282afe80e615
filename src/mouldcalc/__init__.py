"""Exact mould-calculus normalisation of saddle-node vector fields.

The library computes, in exact complex-rational arithmetic, the formal
transformation conjugating a prepared saddle-node field to its normal
form, via word-indexed mould expansions; it verifies the algebraic
identities of the construction (shuffle symmetry, the mould equation,
valuation bounds) and computes formal Borel transforms of the
resulting divergent series.
"""

from .borel import (borel, borel_phi_n, borel_V, conv, divide_by_zeta_minus,
                    eval_partial_sum)
from .errors import (CacheError, ComouldDomainError, ConstantTermError,
                     FieldValidationError, IllPosedError, MouldCalcError,
                     NonInvertibleMouldError)
from .moulds import (Mould, check_alternal, check_symmetral, j_a_mould,
                     mould_from_dict, mould_inverse, mould_mul, nabla,
                     residual_mould_equation, solve_V, symmetral_inverse,
                     unit_mould)
from .normalisation import (comould_apply, compose_check,
                            components_needed, formal_integral_residual,
                            oracle_phi, phi_component, phi_n,
                            psi_component, psi_n, assemble_phi,
                            y_monomial)
from .saddlenode import (BivariateSeries, PhiSeries, SaddleNodeField,
                         extract_letters, field_from_json, field_to_json,
                         load_field_file, pde_residual, substitute_phi)
from .scalars import CQ, cq
from .series import (TruncatedSeries, euler_derivation, ps_mul,
                     solve_euler_shifted, to_z_coeffs)
from .words import (beta, contributing_words, enumerate_bounded_weight,
                    enumerate_words, shuffle_coeff, shuffles,
                    valuation_lower_bound, weight, word_key)

__version__ = "0.1.0"
