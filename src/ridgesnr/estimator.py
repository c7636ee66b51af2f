"""Blind SNR estimation from a single received vector.

The pipeline: solve the ridge problem at each penalty in a small grid, record
the normalized cost, pair each cost with the deterministic coefficients
(xi1, xi2) from :mod:`ridgesnr.rmt`, and invert the resulting n x 2 linear
system for (sigma_x^2, sigma_n^2) under a nonnegativity constraint. The SNR
estimate is their ratio. :class:`EstimatorPlan` runs it: it holds the
coefficients of one (Psi, M, K, grid), and its ``costs`` and ``estimate`` take
one observation each. A classical maximum-likelihood baseline (residual
noise-variance estimate combined with the known signal variance) is provided
for comparison.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .exceptions import DimensionError
from .numerics import nnls_2var, spd_solve
from .rmt import CorrelationSpectrum, _positive_finite, coefficients_grid

__all__ = [
    "LinearModel",
    "RidgeSolution",
    "SnrEstimate",
    "EstimatorPlan",
    "ridge_solve",
    "ridge_costs",
    "estimate_snr",
    "ml_baseline",
]

# Aspect-ratio sanity bounds; the asymptotics assume K/M bounded away from 0 and infinity.
MIN_ASPECT = 0.01
MAX_ASPECT = 100.0

# Stand-in for lambda = 0 in the least-squares baseline, small enough that the
# ridge solution is the (minimum-norm) LS solution to working precision.
LS_EPSILON = 1e-10

# Most observations ridge_costs stacks into one matrix product.
COST_BLOCK = 64


def _check_dims(spectrum: CorrelationSpectrum, m: int, k: int) -> None:
    if spectrum.dim != m:
        raise DimensionError(f"correlation dim {spectrum.dim} != design rows {m}")
    aspect = k / m
    if not (MIN_ASPECT <= aspect <= MAX_ASPECT):
        raise DimensionError(f"aspect ratio K/M = {aspect:.4g} outside [{MIN_ASPECT}, {MAX_ASPECT}]")


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Observation y = W x0 + n with W = Psi^(1/2) Wbar.

    ``design`` is the composed W; ``raw_design`` keeps Wbar for file dumps and
    diagnostics. The Gram matrix W^T W is cached since every penalty in a grid
    reuses it.
    """

    design: np.ndarray
    raw_design: np.ndarray
    spectrum: CorrelationSpectrum
    y: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.design, dtype=float)
        wbar = np.asarray(self.raw_design, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "design", w)
        object.__setattr__(self, "raw_design", wbar)
        object.__setattr__(self, "y", y)
        if w.ndim != 2:
            raise DimensionError("design must be a matrix")
        m, k = w.shape
        if wbar.shape != (m, k):
            raise DimensionError(f"raw design shape {wbar.shape} != design shape {w.shape}")
        if y.shape != (m,):
            raise DimensionError(f"observation length {y.shape} != design rows {m}")
        _check_dims(self.spectrum, m, k)
        if not (np.isfinite(w).all() and np.isfinite(y).all()):
            raise DimensionError("model contains non-finite entries")

    @property
    def m(self) -> int:
        return self.design.shape[0]

    @property
    def k(self) -> int:
        return self.design.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        return self.design.T @ self.design

    @cached_property
    def wty(self) -> np.ndarray:
        return self.design.T @ self.y


@dataclass(frozen=True, eq=False)
class RidgeSolution:
    """Ridge solution and its normalized cost at one penalty."""

    lam: float
    x_hat: np.ndarray
    phi: float


@dataclass(frozen=True)
class SnrEstimate:
    """Estimated (sigma_x^2, sigma_n^2) and the implied SNR.

    ``snr_linear`` is inf when the noise estimate is zero (with a positive
    signal estimate), 0 when the signal estimate is zero, and nan when both
    are zero; ``degenerate`` is True in exactly those cases.
    """

    sigma_x2_hat: float
    sigma_n2_hat: float
    snr_linear: float
    snr_db: float
    fit_residual_norm: float = 0.0
    fixed_point_iters: tuple = field(default=())

    @property
    def degenerate(self) -> bool:
        return not (0.0 < self.snr_linear < math.inf)


def _snr_fields(sigma_x2: float, sigma_n2: float) -> tuple[float, float]:
    if sigma_n2 > 0:
        snr = sigma_x2 / sigma_n2
        snr_db = 10.0 * math.log10(snr) if snr > 0 else -math.inf
    elif sigma_x2 > 0:
        snr, snr_db = math.inf, math.inf
    else:
        snr, snr_db = math.nan, math.nan
    return snr, snr_db


def ridge_solve(model: LinearModel, lam: float) -> RidgeSolution:
    """Solve min_x ||y - W x||^2 + lam ||x||^2 and evaluate the normalized cost.

    The normal equations (W^T W + lam I) x = W^T y are solved by Cholesky, with
    lam added to the diagonal of a copy of the cached Gram matrix; the cost is
    evaluated directly from the residual so it is nonnegative even when the
    two terms nearly cancel.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    k = model.k
    normal = model.gram.copy()
    normal.flat[:: k + 1] += lam
    x_hat = spd_solve(normal, model.wty)
    resid = model.y - model.design @ x_hat
    phi = (float(resid @ resid) + lam * float(x_hat @ x_hat)) / k
    return RidgeSolution(lam=lam, x_hat=x_hat, phi=phi)


def ridge_costs(design, ys, lambdas) -> Iterator[np.ndarray]:
    """Normalized ridge cost of many observations on one fixed design, from one SVD.

    With W = U S V^T (thin SVD), K phi(lam) = sum_i lam/(s_i^2 + lam) (u_i^T y)^2
    + ||y - U U^T y||^2; the second term, the energy outside W's range, is
    taken as a residual norm so it does not cancel at high SNR. ``ys`` is an
    iterable of observation vectors, stacked in blocks of at most
    ``COST_BLOCK`` columns so memory does not grow with their number; one
    (len(lambdas), n) array of costs is yielded per block of n observations.
    Each cost equals ``ridge_solve(model, lam).phi`` to rounding.
    """
    w = np.asarray(design, dtype=float)
    if w.ndim != 2:
        raise DimensionError("design must be a matrix")
    if not np.all(np.isfinite(w)):
        raise DimensionError("design contains non-finite entries")
    lams = _positive_finite(lambdas, "lambda").reshape(-1, 1)
    m, k = w.shape
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    shrink = lams / (s ** 2 + lams)
    observations = iter(ys)
    while chunk := list(islice(observations, COST_BLOCK)):
        block = np.asarray(chunk, dtype=float).T
        if block.ndim != 2 or block.shape[0] != m:
            raise DimensionError(f"observations of shape {block.shape[::-1]} do not have "
                                 f"the design's {m} rows")
        if not np.all(np.isfinite(block)):
            raise DimensionError("observation contains non-finite entries")
        coef = u.T @ block
        outside = block - u @ coef
        yield (shrink @ coef ** 2 + np.sum(outside ** 2, axis=0)) / k


def _validated_grid(lambdas) -> np.ndarray:
    grid = np.array(lambdas, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("need at least 2 penalty values")
    _positive_finite(grid, "lambda")
    if np.unique(grid).size != grid.size:
        raise ValueError("penalty values must be distinct")
    return grid


@dataclass(frozen=True, eq=False)
class EstimatorPlan:
    """The observation-independent half of the estimator for one (Psi, M, K, grid).

    The coefficients (xi1, xi2) at each penalty depend only on the spectrum,
    the dimensions and the penalty, so they are computed once here, in one
    fixed-point solve for the whole grid; every observation drawn with this
    spectrum and these dimensions then costs only its ridge solves and the
    2-variable NNLS. ``lambdas`` is stored as the validated grid; it, ``xi`` and
    ``fixed_point_iters`` are shared by every estimate, so the arrays are read-only.
    """

    spectrum: CorrelationSpectrum
    m: int
    k: int
    lambdas: np.ndarray
    xi: np.ndarray = field(init=False)
    fixed_point_iters: tuple = field(init=False)

    def __post_init__(self):
        _check_dims(self.spectrum, self.m, self.k)
        grid = _validated_grid(self.lambdas)
        xi, steps = coefficients_grid(self.spectrum, self.m, self.k, grid)
        grid.flags.writeable = xi.flags.writeable = False
        object.__setattr__(self, "lambdas", grid)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "fixed_point_iters", tuple(steps.tolist()))

    def costs(self, model: LinearModel) -> np.ndarray:
        """Realized normalized ridge cost of ``model`` at each penalty of the plan."""
        if model.spectrum is not self.spectrum:
            raise DimensionError("model was not drawn with the plan's correlation spectrum")
        if (model.m, model.k) != (self.m, self.k):
            raise DimensionError(f"model is {model.m}x{model.k}, plan is {self.m}x{self.k}")
        return np.array([ridge_solve(model, lam).phi for lam in self.lambdas])

    def estimate(self, model: LinearModel) -> SnrEstimate:
        """Blind SNR estimate of ``model`` (see :func:`estimate_snr`), from Xi @ sigma ~ costs
        under the sign constraint, with the norm of the fit residual costs - Xi @ sigma."""
        sigma, fit_residual = nnls_2var(self.xi, self.costs(model))
        sigma_x2, sigma_n2 = float(sigma[0]), float(sigma[1])
        snr, snr_db = _snr_fields(sigma_x2, sigma_n2)
        return SnrEstimate(sigma_x2_hat=sigma_x2, sigma_n2_hat=sigma_n2, snr_linear=snr,
                           snr_db=snr_db, fit_residual_norm=fit_residual,
                           fixed_point_iters=self.fixed_point_iters)


def estimate_snr(model: LinearModel, lambdas) -> SnrEstimate:
    """Blind SNR estimate from one observation and a penalty grid.

    Degenerate outcomes (a zero variance estimate from the nonnegativity
    constraint) are flagged on the returned estimate, never raised, so large
    Monte-Carlo sweeps are not interrupted by rare clamped trials. To estimate
    many observations of one (Psi, M, K, grid), build an :class:`EstimatorPlan`
    once and call its ``estimate``.
    """
    return EstimatorPlan(model.spectrum, model.m, model.k, lambdas).estimate(model)


def ml_baseline(model: LinearModel, true_sigma_x2: float) -> SnrEstimate:
    """Maximum-likelihood noise-variance baseline with known signal variance.

    sigma_n^2 is the least-squares residual energy divided by M (the plain ML
    normalizer, which underestimates the noise level by a factor (M - K)/M
    for tall systems). For M <= K the LS fit interpolates and the estimate
    collapses toward zero; that regime is kept as-is since it is exactly the
    failure mode the comparison is meant to expose.
    """
    if true_sigma_x2 < 0:
        raise ValueError("true signal variance must be nonnegative")
    ls = ridge_solve(model, LS_EPSILON)
    resid = model.y - model.design @ ls.x_hat
    sigma_n2 = float(resid @ resid) / model.m
    snr, snr_db = _snr_fields(true_sigma_x2, sigma_n2)
    return SnrEstimate(
        sigma_x2_hat=float(true_sigma_x2),
        sigma_n2_hat=sigma_n2,
        snr_linear=snr,
        snr_db=snr_db,
        fit_residual_norm=float(np.linalg.norm(resid)),
    )
