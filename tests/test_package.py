import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ridgesnr

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    modules = [ridgesnr] + [importlib.import_module(f"ridgesnr.{info.name}")
                            for info in pkgutil.iter_modules(ridgesnr.__path__)]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not stale


def test_public_api_is_pinned():
    # adding or dropping a public name is a deliberate change to this list
    assert sorted(ridgesnr.__all__) == [
        "ConvergenceError", "CorrelationSpec", "CorrelationSpectrum", "DataFormatError",
        "DefinitenessError", "DimensionError", "DistributionSpec", "EstimatorPlan",
        "LinearModel", "MetricsRow", "RidgeSnrError", "RunConfig", "ScenarioDefinition",
        "SnrEstimate", "__version__", "alpha",
        "build_correlation", "coefficients_grid", "derive_rng", "dim_sweep",
        "estimate_from_files", "estimate_snr", "lambda_sensitivity", "ml_baseline",
        "nnls_2var", "ridge_costs", "ridge_solve", "run_scenario", "sample_truth",
        "scenario_catalog", "solve_delta_grid", "sym_eig", "synthesize", "verify_theorem",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def _assert_runs_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports the package from ``src/``."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_scipy_special_loads_only_for_a_bessel_correlation():
    # it is the package's only use of scipy.special, which every CLI call would load
    code = ("import sys, ridgesnr\n"
            "assert 'scipy.special' not in sys.modules\n"
            "ridgesnr.build_correlation(ridgesnr.CorrelationSpec('bessel', 4))\n"
            "assert 'scipy.special' in sys.modules\n")
    _assert_runs_fresh(code)


def test_scipy_linalg_loads_only_for_a_ridge_solve():
    # ridge_solve's dposv is the package's only use of scipy.linalg; verify-theorem's costs
    # come from numpy's eigh, and --help or a rejected input never reaches a solve
    code = ("import sys, numpy as np, ridgesnr.cli\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "ridgesnr.verify_theorem(ridgesnr.RunConfig(scenario='fig1', trials=2))\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "w = np.eye(2)\n"
            "spectrum = ridgesnr.CorrelationSpectrum.from_diagonal(np.ones(2))\n"
            "ridgesnr.ridge_solve(ridgesnr.LinearModel(w, w, spectrum, np.ones(2)), 0.1)\n"
            "assert 'scipy.linalg' in sys.modules\n")
    _assert_runs_fresh(code)
