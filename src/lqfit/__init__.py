"""lqfit: learning linear control gains from expert demonstrations.

Plain policy fitting plus the constrained variant that requires the fitted
gain to be LQR-optimal for some quadratic cost, solved by an ADMM
heuristic.  See the module docstrings of :mod:`lqfit.linsys`,
:mod:`lqfit.riccati`, :mod:`lqfit.conic_ls`, :mod:`lqfit.fitting`,
:mod:`lqfit.kalman_fit` and :mod:`lqfit.bench` for the pieces.
"""

from .bench import (ExperimentConfig, ResultRow, build_aircraft,
                    build_small_random, default_config, run_experiment)
from .conic_ls import (LossSpec, PqrStepResult, RegularizerSpec,
                       SingularFitError, huber_value, project_psd,
                       solve_k_step, solve_pqr_step)
from .fitting import FitReport, fit_objective, policy_fit
from .kalman_fit import (AdmmConfig, AdmmState, KalmanFitReport, admm_iterate,
                         fit_kalman, fit_kalman_batch)
from .linsys import (CostMatrices, DemoSet, LinearDynamics, closed_loop_cost,
                     generate_demos, rollout_cost_estimate, spectral_radius,
                     stationary_covariance)
from .riccati import (ConvergenceError, FarkasWitness, FeasibilityResult,
                      KalmanCertificate, LqrSolution, UnstableModeWitness,
                      check_kalman_feasible, kalman_residual, solve_lqr)

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig", "AdmmState", "ConvergenceError", "CostMatrices", "DemoSet",
    "ExperimentConfig", "FarkasWitness", "FeasibilityResult", "FitReport",
    "KalmanCertificate", "KalmanFitReport", "LinearDynamics", "LossSpec",
    "LqrSolution", "PqrStepResult", "RegularizerSpec", "ResultRow",
    "SingularFitError", "UnstableModeWitness",
    "admm_iterate", "build_aircraft", "build_small_random",
    "check_kalman_feasible", "closed_loop_cost", "default_config",
    "fit_kalman", "fit_kalman_batch", "fit_objective", "generate_demos",
    "huber_value", "kalman_residual", "policy_fit", "project_psd",
    "rollout_cost_estimate", "run_experiment", "solve_k_step", "solve_lqr",
    "solve_pqr_step", "spectral_radius", "stationary_covariance",
]
