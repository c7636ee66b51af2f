"""Blind SNR estimation for linear models with left-correlated Gaussian designs.

The estimator inverts deterministic (random-matrix) predictions of the
normalized ridge-regression cost, evaluated at a small grid of penalties, to
recover the signal and noise variances from a single received vector.
"""

from .estimator import (
    EstimatorPlan,
    LinearModel,
    RidgeSolution,
    SnrEstimate,
    estimate_snr,
    ml_baseline,
    nnls_2var,
    ridge_costs,
    ridge_solve,
)
from .exceptions import (
    ConvergenceError,
    DataFormatError,
    DefinitenessError,
    DimensionError,
    RidgeSnrError,
)
from .harness import (
    MetricsRow,
    RunConfig,
    derive_rng,
    dim_sweep,
    estimate_from_files,
    lambda_sensitivity,
    run_scenario,
    verify_theorem,
)
from .rmt import (
    CorrelationSpectrum,
    alpha,
    coefficients_grid,
    solve_delta_grid,
    sym_eig,
)
from .scenarios import (
    CorrelationSpec,
    DistributionSpec,
    GroundTruth,
    ScenarioDefinition,
    build_correlation,
    sample_truth,
    scenario_catalog,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "EstimatorPlan", "LinearModel", "RidgeSolution", "SnrEstimate",
    "estimate_snr", "ml_baseline", "nnls_2var", "ridge_costs", "ridge_solve",
    "ConvergenceError", "DataFormatError", "DefinitenessError",
    "DimensionError", "RidgeSnrError",
    "MetricsRow", "RunConfig", "derive_rng", "dim_sweep",
    "estimate_from_files", "lambda_sensitivity", "run_scenario",
    "verify_theorem",
    "CorrelationSpectrum", "alpha", "coefficients_grid", "solve_delta_grid",
    "sym_eig",
    "CorrelationSpec", "DistributionSpec", "GroundTruth",
    "ScenarioDefinition", "build_correlation", "sample_truth",
    "scenario_catalog", "synthesize",
    "__version__",
]
