"""qplab: numerical laboratory for quasi-periodic Schrodinger cocycles.

Transfer-matrix products in overflow-safe signed-log arithmetic, finite-scale
Lyapunov exponents and their large-deviation statistics, Green's functions by
Cramer minors and banded solves, resolvent-identity paving, finite-box
localization diagnostics, and the multiscale lower-bound recursion for
strongly coupled potentials.
"""

__version__ = "0.1.0"

from .errors import (ConfigInvalid, DescentExhausted, DropExceeded, GateFailed,
                     HypothesisUnmet, IterationDiverged, PavingFailed,
                     PotentialConstant, QplabError, SigmaOutOfRange,
                     SingularEnergy, StripExceeded)
from .model import (Frequency, StripNorm, TrigPotential, constant_potential,
                    cosine_potential, golden_frequency,
                    potential_from_json, strip_norm, system_from_json,
                    two_cosine_potential, two_torus_frequency,
                    verify_diophantine, zero_potential)
from .transfer import (CocycleResult, cocycle, cocycle_batch, cocycle_complex,
                       growth_envelope, verify_det_identity)
from .lyapunov import (LyapunovEstimate, SamplerSpec, check_subadditivity,
                       lyapunov_limit, lyapunov_n, lyapunov_scan,
                       shift_average, upper_bound_check)
from .ldt import (DeviationProfile, FourierDecay, deviation_measure,
                  fourier_decay_check, ldt_scaling_table)
from .greens import (DecayFit, FiniteOperator, GreenMatrix, PaveResult,
                     MultiscaleParams, build_operator, decay_fit,
                     green_cramer_matrix, green_solve, pave)
from .localization import (DecayProfile, EigenPair, decay_profile,
                           eigensystem, growth_pair_search, resonance_scan,
                           window_bound_check)
from .lowerbound import (EpsilonGap, ScaleLadder, complexified_growth_check,
                         epsilon_gap, epsilon_gap_min, herman_style_bound,
                         initial_scale_bound, multiscale_paving_params,
                         multiscale_recursion, scale_selection,
                         shift_deviation_fraction, sublevel_measure)
