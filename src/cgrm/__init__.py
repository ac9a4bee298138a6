"""Exact constructions of the generalized Cremmer-Gervais solutions to the
classical Yang-Baxter equation, by three independent routes, with full identity
verification over the rationals."""

from .bd import (BDTriple, CartanVector, PosRoot, alpha_part, bd_r_matrix,
                 beta_part, cg_triple, gamma_part, precedes, solve_beta_variety,
                 verify_beta_variety, zeta_hat)
from .closed_form import (CGParams, PsiTable, cg_closed_form, cg_column,
                          cg_m1_display, cg_m2_display, phi_twist, psi)
from .cyb import (CybReport, cyb_lambda, double_bracket, embed, find_lambda,
                  z_op)
from .dunkl import (CherednikParams, b_cg, divided_difference, dunkl_y,
                    element_e, elements_e1_e2, elements_v, lemma_cyb4,
                    m_operator, module_structure_check, r_via_dunkl_m1,
                    r_via_dunkl_m2, verify_relations)
from .frobenius import (FrobeniusData, LieSubalgebra, carrier,
                        frobenius_functional_check, jordanian,
                        nilpotent_exp_action, parabolic, r_check)
from .polyops import (ExactDivisionError, LaurentPoly, PolyOp, TruncWindow,
                      WindowStabilityError, window_matrix)
from .tensorops import (MatrixN, SparseOp, SparseOp2, SparseOp3, WedgeElement,
                        op_add, op_commutator, op_compose, op_scale,
                        op_to_wedge, span_basis, swap_conjugate, wedge_to_op)
from .wheels import (WheelData, euclid_sequence, func_a, func_b, func_c,
                     func_d, func_j, sbar_bruteforce, sbar_closed, strings,
                     wheel)

__all__ = [name for name in dir() if not name.startswith("_")]
