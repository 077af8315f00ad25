"""Bilinear lattice-bump Fourier multipliers on periodic grids.

Desk-scale numerical companion to the transference picture: the continuum
operator T_{a,Phi}, its periodic model T_period_a, the sequence model S_a,
amalgam and Wiener amalgam quasi-norms, exact witness factorizations, and
scaling-family necessity experiments.
"""

from .grid import (BudgetError, GridFunction, GridSpec, dft, idft, make_grid,
                   poisson_check, space_function, freq_function)
from .bumps import (BumpProfile, ConditionBResult, ThetaPair, Window,
                    bump_eval, bump_eval_axes, check_condition_B, make_bump,
                    make_plateau, make_theta_pair, make_window,
                    translate_slack, window_eval, window_eval_axes)
from .symbols import (CMDecomposition, LatticeCoefficients, SymbolGrid,
                      cm_decompose, cm_reconstruct, lattice_delta,
                      lattice_from_dict, random_lattice_coefficients,
                      sigma_from_cm, synth_sigma)
from .operators import (AliasingWarning, Sequence, TrigPolynomial, apply_S,
                        apply_T_aPhi_fast, apply_T_period, apply_T_sigma,
                        band_project, sequence_from_dict, trig_poly_from_dict)
from .norms import (ExponentTuple, amalgam_norm, lp_norm,
                    lp_norm_torus, lq_seq_norm, mixed_norm_check, wiener_norm)
from .transference import (AMALGAM_CITATION, WIENER_CITATION,
                           ExponentHypothesisError, NormEstimate, SearchParams,
                           TransferenceReport, WitnessPair,
                           build_amalgam_witness, build_wiener_witness,
                           estimate_norm_S, estimate_norm_T_aPhi,
                           estimate_norm_T_period, transference_report,
                           verify_amalgam_factorization,
                           verify_wiener_factorization,
                           wiener_witness_norm_identity)
from .scalinglab import (NecessityVerdict, ProductScaling, ScalingFamily,
                         SlopeFit, amalgam_scaling_slope,
                         bilinear_product_scaling, make_scaling_family,
                         necessity_verdict, scaling_slopes, wiener_scaling_slope)

__version__ = "0.1.0"
