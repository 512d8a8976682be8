"""Numerical laboratory for pulsating fronts of periodic bistable
reaction-diffusion equations: front speeds, homogenization limits, principal
eigenvalues and steady-state stability, decay rates, and stability experiments
in the co-moving frame."""

from .profiles import (CoefficientProfile, HarmonicCurve, HomogenizedData,
                       ProblemInstance, ProfileError, ReactionProfile,
                       TabulatedPeriodicCurve, corrector_chi, fbar_and_integral,
                       harmonic_mean, homogenized_data, make_cubic, make_xin_example)
from .solver import Grid1D, Window, build_grid, front_initial_datum, residual_stationary
from .fronts import (Budget, FrontNotConverged, FrontRunConfig, FrontSolution,
                     SpeedEstimate, classify_quenching, compute_pulsating_front,
                     extract_profile, measure_speed, scan_E,
                     verify_speed_identity)
from .homogenize import (HomogenizedFront, align_profiles, homogenization_sweep,
                         solve_homogenized_front)
from .spectral import (EigenPair, SteadyState, decay_root_mu,
                       dirichlet_principal_eigen, find_periodic_steady_states,
                       periodic_principal_eigen, stability_limit)
from .stability import (StabilityReport, SuperSubSolution, build_supersub,
                        global_stability_experiment, initialv2_experiment,
                        poincare_spectrum)

__version__ = "0.1.0"
