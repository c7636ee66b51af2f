"""The fixed point's Xi against the costs' exact conditional mean given W, on the sweep's own
draws.

Given the design W, the normalized ridge cost at penalty lambda_j has the exact mean
a D[j, 0] + b D[j, 1] for any zero-mean iid signal and noise of variances a and b, with

    D[j, 0] = (lambda_j / K) sum_l mu_l / (mu_l + lambda_j)
    D[j, 1] = (lambda_j / K) sum_l 1 / (mu_l + lambda_j) + max(M - K, 0) / K

over the eigenvalues mu_l of W^T W (M >= K) or of W W^T (M < K). D needs no Psi and no
fixed point; Xi is its deterministic equivalent. Each cell draws the trials of
``test_relative_fit.cell_draws`` and fits both designs the same way, with the relative fit
``nnls_2var(d / phi[:, None], 1)``. The designs tie on the catalog grids of a, b and c, on
the b world under scenario i's two wider grids, and on the 8-point grids of g and h. Handed
2 Psi in place of Psi, the plan's Xi biases sigma_x2 low, while D, which never reads Psi,
stays unbiased. Run this file as a script to print the table, for seed 7 or for the seeds
given as arguments.
"""

import sys

import numpy as np
import pytest

from ridgesnr import CorrelationSpectrum, EstimatorPlan, nnls_2var, ridge_solve, scenario_catalog
from test_relative_fit import SEED, TRIALS, WIDE_GRID, cell_draws

WRONG_PSI_GRID = (0.01, 0.1, 1.0, 10.0)

CATALOG_CELLS = [(name, None, None, snr_db) for name in "abc" for snr_db in (-4.0, 20.0)]
# the scenario-b world on scenario i's second and third grids, 1e-2..4e-2 and 0.1..0.4
I_GRIDS = scenario_catalog("i").lambda_grids[1:]
I_GRID_CELLS = [("b", None, grid, snr_db) for grid in I_GRIDS for snr_db in (-4.0, 20.0)]
WIDE_CELLS = [(name, dims, WIDE_GRID, snr_db)
              for name, dims in (("g", (20, 10)), ("h", (31, 30))) for snr_db in (12.0, 20.0)]
# the scenario-c world at its own 80x40, with the plan handed 2 Psi
WRONG_PSI_CELLS = [("c", None, WRONG_PSI_GRID, snr_db) for snr_db in (4.0, 12.0)]


def conditional_design(design: np.ndarray, lambdas) -> np.ndarray:
    """D, the (penalties, 2) design of the costs' exact conditional mean given W = ``design``."""
    m, k = design.shape
    mu = np.linalg.eigvalsh(design.T @ design if m >= k else design @ design.T)
    lams = np.asarray(lambdas, dtype=float)[:, None]
    return np.stack([(lams * mu / (mu + lams)).sum(axis=1) / k,
                     (lams / (mu + lams)).sum(axis=1) / k + max(m - k, 0) / k], axis=1)


def design_fits(xi, grid, models, truth, snr_db):
    """{design: (degenerate trials, median |dB error| of the rest, relative bias of sigma_x2
    over all trials, its z-score)} for Xi = ``xi`` and D, each fitted by the relative fit to
    every model's costs on ``grid``; ``truth`` is the true (sigma_x2, sigma_n2)."""
    sigmas = {"xi": [], "conditional": []}
    for model in models:
        # from the true model: plan.costs rejects a model of another spectrum than the plan's
        phi = np.array([ridge_solve(model, lam)[1] for lam in grid])
        for design, d in (("xi", xi), ("conditional", conditional_design(model.design, grid))):
            sigmas[design].append(nnls_2var(d / phi[:, None], np.ones_like(phi))[0])
    summary = {}
    for design, values in sigmas.items():
        values = np.array(values)
        kept = values[(values > 0).all(axis=1)]
        errors = np.abs(10 * np.log10(kept[:, 0] / kept[:, 1]) - snr_db)
        ratio = values[:, 0] / truth[0] - 1
        bias = float(ratio.mean())
        summary[design] = (len(values) - len(kept), float(np.median(errors)), bias,
                           bias / (ratio.std(ddof=1) / np.sqrt(ratio.size)))
    return summary


def fit_designs(name, dims, grid, snr_db, psi_scale=1.0, seed=SEED, trials=TRIALS):
    """:func:`design_fits` of one cell's draws (``test_relative_fit.cell_draws``), with Xi
    from a plan built on ``psi_scale`` times the cell's Psi."""
    spectrum, k, grid, truth, models = cell_draws(name, dims, grid, snr_db, seed, trials)
    plan = EstimatorPlan(CorrelationSpectrum(psi_scale * spectrum.eigenvalues, spectrum.basis),
                         k, grid)
    return design_fits(plan.xi, plan.lambdas, models, truth, snr_db)


@pytest.mark.parametrize("name, dims, grid, snr_db", CATALOG_CELLS + I_GRID_CELLS)
def test_the_designs_tie_on_the_catalog_grids(name, dims, grid, snr_db):
    xi, conditional = fit_designs(name, dims, grid, snr_db).values()
    assert conditional[0] == xi[0]
    assert conditional[1] == pytest.approx(xi[1], abs=0.1)


# over seeds 0-9 the bounds hold but at seed 8, where h 31x30 at +20 dB has 31 degenerate
# trials against Xi's 26
@pytest.mark.parametrize("name, dims, grid, snr_db", WIDE_CELLS)
def test_the_conditional_design_is_no_worse_on_the_wide_grid(name, dims, grid, snr_db):
    xi, conditional = fit_designs(name, dims, grid, snr_db).values()
    assert conditional[0] <= xi[0] + 3
    assert conditional[1] <= xi[1] + 0.3


# 2 Psi: Xi reads sigma_x2 low by several standard errors, and D, which never reads Psi, does
# not; so the cell can tell a wrong Psi from a right one. Over seeds 0-9 Xi reads z from -11.7
# to -5.2 and D from -3.3 to +2.1; D's -3.2 and -3.3 at seed 1 are the draws', as the plain
# unconstrained fit of D, exactly unbiased given W, reads -3.25 at +12 dB there
@pytest.mark.parametrize("name, dims, grid, snr_db", WRONG_PSI_CELLS)
def test_only_the_conditional_design_is_unbiased_under_a_doubled_psi(name, dims, grid, snr_db):
    xi, conditional = fit_designs(name, dims, grid, snr_db, psi_scale=2.0).values()
    assert abs(conditional[3]) <= 3
    assert xi[3] <= -3


if __name__ == "__main__":
    seeds = [int(arg) for arg in sys.argv[1:]] or [SEED]
    print("| seed | cell | dB | Xi: degenerate, median abs dB error, sigma_x2 bias (z) "
          "| conditional: same |")
    print("| --- | --- | --- | --- | --- |")
    for seed in seeds:
        for cells, scale in ((CATALOG_CELLS + I_GRID_CELLS, 1.0), (WIDE_CELLS, 1.0),
                             (WRONG_PSI_CELLS, 2.0)):
            for name, dims, grid, snr_db in cells:
                cell = name + (" %dx%d" % dims if dims else "") + {
                    None: " catalog grid", WIDE_GRID: " 8 pts 1e-3..1e2",
                    I_GRIDS[0]: " 1e-2..4e-2", I_GRIDS[1]: " 0.1..0.4",
                    WRONG_PSI_GRID: " 0.01..10, 2 Psi"}[grid]
                text = ["%d, %.3f, %+.2f%% (%+.1f)" % (d, e, 100 * b, z)
                        for d, e, b, z in fit_designs(name, dims, grid, snr_db, scale,
                                                      seed).values()]
                print(f"| {seed} | {cell} | {snr_db:+g} | {text[0]} | {text[1]} |")
