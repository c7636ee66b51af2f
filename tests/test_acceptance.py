"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with: pytest tests/test_acceptance.py -v -s

Heavy Monte-Carlo sweeps are shared through session fixtures; every run uses
master seed 0 and 500 trials per point, fixed before any results were
inspected.
"""

import csv
import math
import time

import numpy as np
import pytest

from ridgesnr import (
    CorrelationSpectrum,
    RunConfig,
    dim_sweep,
    lambda_sensitivity,
    nnls_2var,
    run_scenario,
    scenario_catalog,
    solve_delta_grid,
    verify_theorem,
)
from test_estimator import nnls_grid_oracle, objective, ratio_bias_terms

SEED = 0
TRIALS = 500


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def proposed_rows(rows):
    return [r for r in rows if r.method == "proposed"]


def ml_rows(rows):
    return [r for r in rows if r.method == "ml"]


def aggregate_variance(rows, method):
    return float(np.mean([r.norm_err_var for r in rows if r.method == method]))


def proposed_trial_sigmas(path):
    """(sigma_x2_hat, sigma_n2_hat) of the proposed, non-degenerate rows of a
    _trials.csv, as an (n, 2) array per true SNR in dB."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    by_point = {}
    for r in csv.DictReader(lines):
        if r["method"] == "proposed" and r["degenerate"] == "0":
            by_point.setdefault(float(r["snr_true_db"]), []).append(
                (float(r["sigma_x2_hat"]), float(r["sigma_n2_hat"])))
    return {snr_db: np.array(pairs) for snr_db, pairs in by_point.items()}


@pytest.fixture(scope="session")
def scenario_a_runs(tmp_path_factory):
    """Criterion-4 sweep executed with two parallelism settings, dumping trials."""
    out_dir = tmp_path_factory.mktemp("accept_a")
    results = {}
    for par in (1, 2):
        path = out_dir / f"scenario_a_par{par}.csv"
        config = RunConfig(scenario="a", trials=TRIALS, master_seed=SEED,
                           parallelism=par, output_path=str(path), dump_trials=True)
        start = time.monotonic()
        rows = run_scenario(config)
        results[par] = {
            "rows": rows,
            "bytes": path.read_bytes(),
            "trials": path.with_name(path.stem + "_trials" + path.suffix),
            "seconds": time.monotonic() - start,
        }
    return results


@pytest.fixture(scope="session")
def scenario_bcd_runs():
    results = {}
    start = time.monotonic()
    for name in ("b", "c", "d"):
        config = RunConfig(scenario=name, trials=TRIALS, master_seed=SEED, parallelism=2)
        results[name] = run_scenario(config)
    results["seconds"] = time.monotonic() - start
    return results


def test_criterion_1_closed_form_fixed_point():
    start = time.monotonic()
    worst = 0.0
    for m in (40, 100):
        spec = CorrelationSpectrum.from_diagonal(np.ones(m))
        for t in (0.1, 1.0, 10.0):
            (delta,), _ = solve_delta_grid(spec, m, [t])
            closed = (math.sqrt(1.0 + 4.0 * t) - 1.0) / (2.0 * t)
            worst = max(worst, abs(delta - closed))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert report("1 (closed-form fixed point)", ok,
                  f"max |delta - closed form| = {worst:.2e}, {elapsed:.2f}s"), worst


def test_criterion_2_trace_identity():
    rng = np.random.default_rng(SEED)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(4, 301))
        k = int(rng.integers(2, 101))
        q = rng.uniform(0.0, 2.0, m)
        q[0] = max(q[0], 0.1)
        spec = CorrelationSpectrum.from_diagonal(q)
        t = float(10.0 ** rng.uniform(-3, 3))
        (delta,), _ = solve_delta_grid(spec, k, [t])
        c = t / (1.0 + t * delta)
        trace = float(np.sum(q / (1.0 + c * q)))
        rel = abs(trace - k * delta) / (k * delta)
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    assert report("2 (trace identity)", ok,
                  f"worst relative gap = {worst:.2e} over 100 spectra, {elapsed:.2f}s"), worst


def test_criterion_3_cost_prediction_at_scale():
    # 2000 signal/noise draws: the criterion needs at least 200, and the extra
    # draws push the Monte-Carlo noise floor well below the 2% gate
    start = time.monotonic()
    rows = verify_theorem(RunConfig(scenario="fig1", trials=2000, master_seed=SEED))
    elapsed = time.monotonic() - start
    worst = max(r[3] for r in rows)
    ok = len(rows) == 20 and worst < 0.02 and elapsed < 120.0
    assert report("3 (cost prediction, 300x100)", ok,
                  f"max relative error = {worst:.4%} over {len(rows)} penalties "
                  f"(2000 draws), {elapsed:.1f}s"), worst


def test_criterion_4i_mean_tracking(scenario_a_runs):
    rows = proposed_rows(scenario_a_runs[1]["rows"])
    worst = max(abs(r.bias_db) for r in rows)
    seconds = scenario_a_runs[1]["seconds"]
    ok = worst <= 0.5 and seconds < 300.0
    assert report("4i (scenario a mean tracking)", ok,
                  f"worst |mean est - true| = {worst:.3f} dB across {len(rows)} points, "
                  f"{seconds:.1f}s"), worst


def test_criterion_4ii_variance_ordering(scenario_a_runs):
    rows = scenario_a_runs[1]["rows"]
    var_prop = aggregate_variance(rows, "proposed")
    var_ml = aggregate_variance(rows, "ml")
    ok = var_prop < var_ml
    assert report("4ii (scenario a variance ordering)", ok,
                  f"proposed {var_prop:.4f} vs ml {var_ml:.4f}"), (var_prop, var_ml)


def test_criterion_4iii_unbiasedness(scenario_a_runs):
    # unbiased variance estimates, and a mean normalized SNR error within 0.05
    # of the ratio's second-order term J; each averaged over the SNR points
    rows = proposed_rows(scenario_a_runs[1]["rows"])
    sigmas = proposed_trial_sigmas(scenario_a_runs[1]["trials"])
    definition = scenario_catalog("a", seed=SEED)
    terms = []
    for r in rows:
        signal, noise = definition.specs_at(r.snr_true_db)
        pairs = sigmas[r.snr_true_db]
        terms.append(ratio_bias_terms(pairs[:, 0], pairs[:, 1],
                                      signal.implied_variance, noise.implied_variance))
    bias_x, bias_n, jensen = np.mean(terms, axis=0)
    aggregate = np.mean([r.norm_err_mean for r in rows])
    gap = aggregate - jensen
    ok = abs(bias_x) <= 0.05 and abs(bias_n) <= 0.05 and abs(gap) <= 0.05
    assert report("4iii (scenario a unbiasedness)", ok,
                  f"aggregate mean normalized error = {aggregate:+.4f}, J = {jensen:+.4f}, "
                  f"difference {gap:+.4f}; relative bias of sigma_x2_hat {bias_x:+.4f}, "
                  f"of sigma_n2_hat {bias_n:+.4f}"), (aggregate, jensen, bias_x, bias_n)


@pytest.mark.parametrize("name", ["b", "c", "d"])
def test_criterion_5_other_scenarios(scenario_bcd_runs, name):
    rows = scenario_bcd_runs[name]
    worst_bias = max(abs(r.bias_db) for r in proposed_rows(rows))
    var_prop = aggregate_variance(rows, "proposed")
    var_ml = aggregate_variance(rows, "ml")
    seconds = scenario_bcd_runs["seconds"]
    ok = worst_bias <= 0.5 and var_prop < var_ml and seconds < 900.0
    assert report(f"5{name} (scenario {name})", ok,
                  f"worst bias {worst_bias:.3f} dB, var proposed {var_prop:.4f} "
                  f"vs ml {var_ml:.4f}, all-scenario wall time {seconds:.0f}s"), \
        (worst_bias, var_prop, var_ml)


def test_criterion_6_nmse_ordering(scenario_a_runs):
    rows = scenario_a_runs[1]["rows"]
    by_point = {}
    for r in rows:
        by_point.setdefault(r.snr_true_db, {})[r.method] = r
    ordering = all(p["proposed"].nmse_db < p["ml"].nmse_db for p in by_point.values())
    below_zero = all(p["proposed"].nmse_db < 0.0 for p in by_point.values())
    worst = max(p["proposed"].nmse_db for p in by_point.values())
    ok = ordering and below_zero
    assert report("6 (NMSE ordering)", ok,
                  f"proposed < ml at every point: {ordering}; worst proposed NMSE "
                  f"{worst:.2f} dB"), worst


def test_criterion_7_dimension_robustness():
    config = RunConfig(scenario="h", trials=TRIALS, master_seed=SEED,
                       snr_points_db=(10.0,), parallelism=2)
    rows = dim_sweep(config)
    details = []
    ok = True
    for m, k in ((31, 30), (30, 35)):
        prop = next(r for r in rows if r.method == "proposed" and (r.m, r.k) == (m, k))
        ml = next(r for r in rows if r.method == "ml" and (r.m, r.k) == (m, k))
        finite = math.isfinite(prop.mean_est_db)
        bias_ok = abs(prop.bias_db) <= 1.5
        ratio = ml.norm_err_var / prop.norm_err_var
        details.append(f"{m}x{k}: bias {prop.bias_db:+.2f} dB, ml/prop var ratio {ratio:.1e}")
        ok = ok and finite and bias_ok and ratio >= 5.0
    assert report("7 (dimension robustness)", ok, "; ".join(details)), details


def test_criterion_8_penalty_sensitivity():
    config = RunConfig(scenario="i", trials=TRIALS, master_seed=SEED, parallelism=2)
    rows = lambda_sensitivity(config)
    grids = sorted({r.grid_label for r in rows})
    details = []
    ok = len(grids) == 3
    for label in grids:
        worst = max(abs(r.bias_db) for r in rows
                    if r.method == "proposed" and r.grid_label == label)
        details.append(f"grid [{label}]: worst bias {worst:.3f} dB")
        ok = ok and worst <= 1.0
    assert report("8 (penalty-grid sensitivity)", ok, "; ".join(details)), details


def test_criterion_9_nnls_oracle_and_kkt():
    rng = np.random.default_rng(SEED)
    worst_gap = 0.0
    worst_slack = 0.0
    for _ in range(1000):
        xi = rng.standard_normal((4, 2))
        phi = rng.standard_normal(4)
        sigma, _ = nnls_2var(xi, phi)
        gap = objective(xi, phi, sigma) - nnls_grid_oracle(xi, phi)
        worst_gap = max(worst_gap, abs(gap))
        grad = xi.T @ (xi @ sigma - phi)
        assert np.all(sigma >= 0)
        assert np.all(grad >= -1e-9)  # dual feasibility at the optimum
        worst_slack = max(worst_slack, float(np.max(np.abs(sigma * grad))))
    ok = worst_gap <= 1e-3 and worst_slack < 1e-9
    assert report("9 (NNLS oracle and KKT)", ok,
                  f"worst objective gap {worst_gap:.2e}, worst complementary "
                  f"slackness {worst_slack:.2e} over 1000 systems"), (worst_gap, worst_slack)


def test_criterion_10_determinism_across_parallelism(scenario_a_runs):
    identical = scenario_a_runs[1]["bytes"] == scenario_a_runs[2]["bytes"]
    ok = identical
    assert report("10 (determinism across parallelism)", ok,
                  f"CSV bytes identical across parallelism 1 and 2: {identical}")
