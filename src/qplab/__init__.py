"""qplab: numerical laboratory for quasi-periodic Schrodinger cocycles.

Transfer-matrix products rescaled by powers of two so that they never
overflow, finite-scale Lyapunov exponents and their large-deviation
statistics, Green's functions in signed-log arithmetic by Cramer minors and
banded solves, resolvent-identity paving, finite-box localization
diagnostics, and the multiscale lower-bound recursion for strongly coupled
potentials.
"""

__version__ = "0.1.0"

from .errors import (ConfigInvalid, DropExceeded, GateFailed,
                     HypothesisUnmet, IterationDiverged, PavingFailed,
                     PotentialConstant, QplabError, SigmaOutOfRange,
                     SingularEnergy, StripExceeded, WorkerFailed)
from .model import (Frequency, TrigPotential, cosine_potential,
                    golden_frequency, system_from_json, two_cosine_potential,
                    two_torus_frequency, verify_diophantine, zero_potential)
from .transfer import cocycle_batch, verify_det_identity
from .lyapunov import (SamplerSpec, check_subadditivity, lyapunov_n,
                       lyapunov_scan, upper_bound_check)
from .ldt import deviation_measure, fourier_decay_check
from .greens import (GreenMatrix, decay_fit, green_cramer_matrix, green_solve,
                     pave)
from .localization import decay_profile, eigensystem, window_bound_check
from .lowerbound import (complexified_growth_check, epsilon_gap,
                         initial_scale_bound, multiscale_recursion,
                         sublevel_measure)
