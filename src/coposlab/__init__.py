"""coposlab: certification, construction and volumetric study of the matrix
cones COP, SPN, PSD, NN, DNN and CP via their even-quartic counterparts."""

from .numerics import (CholeskyFactor, NegVector, PivotList, QSqrt2,
                       Refutation, SymMatrix, exact_ldl_psd, matrix_dumps,
                       matrix_load_file, matrix_loads, psd_certificate,
                       sym_eigen)
from .sdp import (LinExpr, SdpProblem, SdpSolution, SdpStatus,
                  even_sos_assemble, sdp_solve, sdp_solve_many,
                  sos_gram_assemble)
from .cones import (CopRefutation, CpRefutation, InfeasibilityCert, SosGram,
                    SpnPair, cop_inner, cop_refute, cp_refute, frobenius,
                    horn_matrix, membership_basic, parrilo_member,
                    spn_decompose)
from .quartic import EvenQuartic, basis_M, l2_inner, r_squared, sphere_moment
from .exceptional import (CosPoly, EdnnResult, TrigGram, build_ednn_sdp,
                          compression_matrix, construct_ecop, construct_ednn,
                          load_reference_a5, load_reference_c,
                          load_reference_gram, read_off_series,
                          triple_integral, verify_paper_examples)
from .volume import (SectionSpec, VradEstimate, check_bounds, radial,
                     section_radii, vrad_mc, vrad_nn_exact)

__version__ = "0.1.0"
