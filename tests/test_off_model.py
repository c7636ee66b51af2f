"""Off the paper's model: Xi and the conditional design on designs the paper does not assume.

The paper draws W = Psi^(1/2) Wbar with Wbar iid Gaussian. Each real cell keeps the
scenario-a world, its diagonal Psi at 80x40, noise variance 0.1, a Gaussian signal and the
catalog grid, and draws Wbar another way: Gaussian (the model), Rademacher +-1, 10%-sparse
Gaussian rescaled to unit variance, or Gaussian with exponential (0.7) correlation across
its columns. A complex cell draws a 40x20 complex baseband model y = Psi^(1/2) Wbar x + n,
Wbar and n circular Gaussian, x circular Gaussian or QPSK, and fits its real embedding

    W_r = [[Re W, -Im W], [Im W, Re W]] (80x40),  y_r = [Re y; Im y],

which is Psi_r^(1/2) Wbar_r for Wbar_r = sqrt(2) [[Re Wbar, -Im Wbar], [Im Wbar, Re Wbar]]
(unit-variance entries) and Psi_r of eigenvalues (q, q) / 2. Its variances are half the
complex model's, so its estimates are scored against half the true ones (doubling them back
gives the same relative bias); the SNR is the complex model's.

Each cell fits the plan's Xi and ``test_conditional_design.conditional_design`` by the
relative fit (``design_fits``), on draws from ``derive_rng(seed, STREAM_OFF_MODEL, cell,
trial)``. Asserted: sigma_x2's relative bias over all trials lies within 3 standard errors
for the conditional design on every real cell, and for Xi on the Rademacher and complex
cells. Not asserted: Xi's bias on the sparse and right-correlated designs at -4 dB, which
over seeds 0-9 reads +48% to +106% and +46% to +88% (README, "Where the paper's model
holds"). Run this file as a script to print the table, for seed 7 or for the seeds given as
arguments.
"""

import sys
from functools import cache

import numpy as np
import pytest

from ridgesnr import (CorrelationSpectrum, EstimatorPlan, LinearModel, derive_rng,
                      sample_truth, scenario_catalog)
from ridgesnr.harness import _correlation_for
from test_conditional_design import design_fits
from test_relative_fit import SEED

TRIALS = 200
# a stream kind no harness run draws from
STREAM_OFF_MODEL = 9
SNRS_DB = (-4.0, 20.0)
REAL_WBARS = ("gaussian", "rademacher", "sparse", "right-correlated")
COMPLEX_SIGNALS = ("gaussian", "qpsk")
REAL_CELLS = [("real", wbar, snr_db) for wbar in REAL_WBARS for snr_db in SNRS_DB]
COMPLEX_CELLS = [("complex", signal, snr_db) for signal in COMPLEX_SIGNALS for snr_db in SNRS_DB]
CELLS = REAL_CELLS + COMPLEX_CELLS


def draw_wbar(kind: str, rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """An m x k Wbar of unit-variance entries, drawn as ``kind`` says."""
    if kind == "gaussian":
        return rng.standard_normal((m, k))
    if kind == "rademacher":
        return rng.choice((-1.0, 1.0), size=(m, k))
    if kind == "sparse":
        return rng.standard_normal((m, k)) * (rng.random((m, k)) < 0.1) / np.sqrt(0.1)
    # right-correlated: each row has covariance C[i, j] = 0.7^|i - j|
    offsets = np.arange(k)
    root = np.linalg.cholesky(0.7 ** np.abs(offsets[:, None] - offsets[None, :]))
    return rng.standard_normal((m, k)) @ root.T


def circular(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """Circular complex Gaussian entries of E|z|^2 = ``variance``."""
    return np.sqrt(variance / 2) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def embed(w: np.ndarray) -> np.ndarray:
    """The real form [[Re W, -Im W], [Im W, Re W]] of a complex matrix."""
    return np.block([[w.real, -w.imag], [w.imag, w.real]])


def real_models(spectrum, wbar_kind, specs, k, seed, cell, trials):
    """Models of the (signal, noise) ``specs`` on Psi = ``spectrum``, Wbar as ``wbar_kind``."""
    for trial in range(trials):
        rng = derive_rng(seed, STREAM_OFF_MODEL, cell, trial)
        x0, n = sample_truth(*specs, spectrum.dim, k, rng)
        wbar = draw_wbar(wbar_kind, rng, spectrum.dim, k)
        design = spectrum.sqrt_apply(wbar)
        yield LinearModel(design=design, raw_design=wbar, spectrum=spectrum, y=design @ x0 + n)


def complex_models(q, spectrum, signal, truth, k, seed, cell, trials):
    """Real embeddings of complex models with Psi = diag(q); ``spectrum`` is Psi_r's."""
    m = q.size
    for trial in range(trials):
        rng = derive_rng(seed, STREAM_OFF_MODEL, cell, trial)
        if signal == "gaussian":
            x0 = circular(rng, k, truth[0])
        else:
            x0 = np.sqrt(truth[0] / 2) * (rng.choice((-1.0, 1.0), k)
                                          + 1j * rng.choice((-1.0, 1.0), k))
        n = circular(rng, m, truth[1])
        wbar = circular(rng, (m, k), 1.0)
        w = np.sqrt(q)[:, None] * wbar
        y = w @ x0 + n
        yield LinearModel(design=embed(w), raw_design=np.sqrt(2) * embed(wbar),
                          spectrum=spectrum, y=np.concatenate([y.real, y.imag]))


@cache
def off_model_fits(world, kind, snr_db, seed=SEED, trials=TRIALS):
    """:func:`test_conditional_design.design_fits` of one cell; a complex cell's variances
    are the real embedding's, half the complex model's, so its relative biases are the
    complex model's."""
    definition = scenario_catalog("a", seed=seed)
    specs = definition.specs_at(snr_db)
    truth = np.array([spec.implied_variance for spec in specs])
    (m, k), cell = definition.dims, CELLS.index((world, kind, snr_db))
    if world == "real":
        spectrum = _correlation_for(definition, m, seed)
        models = real_models(spectrum, kind, specs, k, seed, cell, trials)
    else:  # an m/2 x k/2 complex model, fitted as its m x k real embedding
        q = _correlation_for(definition, m // 2, seed).eigenvalues
        spectrum = CorrelationSpectrum.from_diagonal(np.concatenate([q, q]) / 2)
        models = complex_models(q, spectrum, kind, truth, k // 2, seed, cell, trials)
        truth = truth / 2
    plan = EstimatorPlan(spectrum, k, definition.lambda_grid)
    return design_fits(plan.xi, plan.lambdas, models, truth, snr_db)


@pytest.mark.parametrize("world, kind, snr_db", REAL_CELLS)
def test_the_conditional_design_is_unbiased_on_every_real_design(world, kind, snr_db):
    assert abs(off_model_fits(world, kind, snr_db)["conditional"][3]) <= 3


@pytest.mark.parametrize("world, kind, snr_db", [
    cell for cell in CELLS if cell[0] == "complex" or cell[1] == "rademacher"])
def test_xi_is_unbiased_on_rademacher_and_complex_designs(world, kind, snr_db):
    assert abs(off_model_fits(world, kind, snr_db)["xi"][3]) <= 3


if __name__ == "__main__":
    seeds = [int(arg) for arg in sys.argv[1:]] or [SEED]
    print("| seed | design | dB | Xi: degenerate, median abs dB error, sigma_x2 bias (z) "
          "| conditional: same |")
    print("| --- | --- | --- | --- | --- |")
    for seed in seeds:
        for world, kind, snr_db in CELLS:
            cell = f"{kind} Wbar 80x40" if world == "real" else f"complex 40x20, {kind} x"
            text = ["%d, %.3f, %+.2f%% (%+.1f)" % (d, e, 100 * b, z)
                    for d, e, b, z in off_model_fits(world, kind, snr_db, seed).values()]
            print(f"| {seed} | {cell} | {snr_db:+g} | {text[0]} | {text[1]} |")
