"""Blind SNR estimation from a single received vector.

The pipeline: solve the ridge problem at each penalty in a small grid, record
the normalized cost, pair each cost with the deterministic coefficients
(xi1, xi2) from :mod:`ridgesnr.rmt`, and invert the resulting n x 2 linear
system for (sigma_x^2, sigma_n^2) under a nonnegativity constraint, exactly
(``nnls_2var``). The SNR estimate is their ratio. :class:`EstimatorPlan` runs
it: it holds the coefficients of one (Psi, M, K, grid), and its ``costs`` and
``estimate`` take one observation each. A classical maximum-likelihood
baseline (residual noise-variance estimate combined with the known signal
variance) is provided for comparison.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np
from scipy.linalg.lapack import dposv

from .exceptions import DefinitenessError, DimensionError
from .rmt import CorrelationSpectrum, _as_matrix, _positive_finite, coefficients_grid

__all__ = [
    "LinearModel",
    "RidgeSolution",
    "SnrEstimate",
    "EstimatorPlan",
    "ridge_solve",
    "ridge_costs",
    "estimate_snr",
    "ml_baseline",
    "nnls_2var",
]

# Aspect-ratio sanity bounds; the asymptotics assume K/M bounded away from 0 and infinity.
MIN_ASPECT = 0.01
MAX_ASPECT = 100.0

# Stand-in for lambda = 0 in the least-squares baseline, small enough that the
# ridge solution is the (minimum-norm) LS solution to working precision.
LS_EPSILON = 1e-10

# Most observations ridge_costs stacks into one matrix product.
COST_BLOCK = 64

# ridge_costs factors W through ``eigh`` of its Gram only when the smallest
# eigenvalue exceeds this times the largest, i.e. cond(W) < 100.
GRAM_RCOND = 1e-4


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
        gram = self.design.T @ self.design
        if not np.isfinite(gram).all():
            raise DimensionError("Gram matrix W^T W contains non-finite entries")
        return gram

    @cached_property
    def wty(self) -> np.ndarray:
        return self.design.T @ self.y


@dataclass(frozen=True, eq=False)
class RidgeSolution:
    """Ridge solution, its residual y - W x_hat and its normalized cost at one penalty."""

    lam: float
    x_hat: np.ndarray
    residual: np.ndarray
    phi: float


@dataclass(frozen=True)
class SnrEstimate:
    """Estimated (sigma_x^2, sigma_n^2), the SNR they imply, and fit diagnostics.

    ``snr_linear`` is the ratio of the two variances: inf when the noise estimate
    is zero (with a positive signal estimate), 0 when the signal estimate is zero,
    and nan when both are zero; ``degenerate`` is True in exactly those cases.
    ``snr_db`` is 10 log10 of the ratio, -inf for a zero ratio.

    The diagnostics are the proposed method's (:meth:`EstimatorPlan.estimate`):
    ``fit_residual_norm`` is the norm of its 2-variable fit residual and
    ``fixed_point_iters`` its fixed-point step counts; :func:`ml_baseline` leaves
    both at their defaults.
    """

    sigma_x2_hat: float
    sigma_n2_hat: float
    fit_residual_norm: float = field(default=0.0, kw_only=True)
    fixed_point_iters: tuple = field(default=(), kw_only=True)

    @property
    def snr_linear(self) -> float:
        if self.sigma_n2_hat > 0:
            return self.sigma_x2_hat / self.sigma_n2_hat
        return math.inf if self.sigma_x2_hat > 0 else math.nan

    @property
    def snr_db(self) -> float:
        snr = self.snr_linear
        if self.sigma_n2_hat > 0:
            return 10.0 * math.log10(snr) if snr > 0 else -math.inf
        return snr  # inf or nan

    @property
    def degenerate(self) -> bool:
        return not (0.0 < self.snr_linear < math.inf)


def ridge_solve(model: LinearModel, lam: float) -> RidgeSolution:
    """Solve min_x ||y - W x||^2 + lam ||x||^2 and evaluate the normalized cost.

    The normal equations (W^T W + lam I) x = W^T y are solved by Cholesky, with
    lam added to the diagonal of a copy of the cached Gram matrix: one LAPACK
    ``dposv`` call, the ``dpotrf`` and ``dpotrs`` of ``scipy.linalg.cho_factor``
    and ``cho_solve`` with their bits, minus their per-call dispatch. The cost
    is evaluated directly from the residual so it is nonnegative even when the
    two terms nearly cancel.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    k = model.k
    normal = model.gram.copy()
    normal.flat[:: k + 1] += lam
    _, x_hat, info = dposv(normal, model.wty, lower=1)
    if info > 0:
        raise DefinitenessError(f"matrix is not positive definite: {info}-th leading minor "
                                "of the array is not positive definite")
    resid = model.y - model.design @ x_hat
    with np.errstate(over="ignore"):  # an overflowed cost reads inf, which nnls_2var rejects
        phi = (float(resid @ resid) + lam * float(x_hat @ x_hat)) / k
    return RidgeSolution(lam=lam, x_hat=x_hat, residual=resid, phi=phi)


def ridge_costs(design, ys, lambdas) -> Iterator[np.ndarray]:
    """Normalized ridge cost of many observations on one fixed design, from one factorization.

    With W = U S V^T, K phi(lam) = sum_i lam/(s_i^2 + lam) (u_i^T y)^2
    + ||y - U U^T y||^2; the second term, the energy outside W's range, is
    taken as a residual norm so it does not cancel at high SNR. U and S^2 come
    from ``eigh`` of the K x K Gram, U = W V / S, when its eigenvalues are
    positive and cond(W)^2 < 1 / ``GRAM_RCOND``, so that U's orthonormality
    error, about eps cond(W)^2, stays near 1e-12 at worst; any other design
    (wide, rank-deficient or ill-conditioned) takes a thin SVD.
    ``ys`` is an iterable of observation vectors, stacked in blocks of at most
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
    mu, v = np.linalg.eigh(w.T @ w)
    if mu[0] > GRAM_RCOND * mu[-1]:
        u = (w @ v) / np.sqrt(mu)
    else:
        u, s, _ = np.linalg.svd(w, full_matrices=False)
        mu = s ** 2
    shrink = lams / (mu + lams)
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


def nnls_2var(xi, phi) -> tuple[np.ndarray, float]:
    """Minimize 0.5*||phi - Xi @ sigma||^2 subject to sigma >= 0, for Xi with 2 columns.

    Solved exactly: the optimum of this convex QP zeroes some subset of the
    variables and solves unconstrained least squares over the rest. A
    nonnegative unconstrained solution is therefore the optimum and is returned
    at once; otherwise keeping the feasible one of the other three candidates
    (x only, n only, zero) with the smallest objective is exhaustive. Rank-deficient
    subproblems fall back to the minimum-norm solution; the all-zero candidate
    is always feasible, so the solver never fails. phi is first scaled by the power
    of two 2^-e that brings max |phi| into [0.5, 1), and sigma and the residual
    back by 2^e: exact in every flop, and no square of a cost near 1e200 overflows.

    Returns (sigma, residual_norm) with residual_norm = ||phi - Xi @ sigma||_2.
    """
    xi = _as_matrix(xi, "Xi")
    phi = np.asarray(phi, dtype=float)
    n = xi.shape[0]
    if xi.shape[1] != 2:
        raise DimensionError(f"Xi must have exactly 2 columns, got {xi.shape[1]}")
    if phi.shape != (n,):
        raise DimensionError(f"phi length {phi.shape} does not match Xi rows {n}")
    if n < 2:
        raise DimensionError("need at least 2 rows to fit 2 variables")
    if not np.isfinite(phi).all():
        raise DimensionError("phi contains non-finite entries")

    exponent = math.frexp(float(np.abs(phi).max()))[1]
    phi = np.ldexp(phi, -exponent)
    sigma, *_ = np.linalg.lstsq(xi, phi, rcond=None)
    if not np.all(sigma >= 0):
        best_obj = np.inf
        for free in ([0], [1], []):
            candidate = np.zeros(2)
            if free:
                sol, *_ = np.linalg.lstsq(xi[:, free], phi, rcond=None)
                candidate[free] = sol
            if np.any(candidate < 0):
                continue
            obj = 0.5 * np.sum((phi - xi @ candidate) ** 2)
            if obj < best_obj:
                best_obj, sigma = obj, candidate
    residual = float(np.linalg.norm(phi - xi @ sigma))
    return np.ldexp(sigma, exponent), math.ldexp(residual, exponent)


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
        return SnrEstimate(float(sigma[0]), float(sigma[1]), fit_residual_norm=fit_residual,
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
    resid = ridge_solve(model, LS_EPSILON).residual
    return SnrEstimate(float(true_sigma_x2), float(resid @ resid) / model.m)
