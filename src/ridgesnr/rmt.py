"""Deterministic equivalents of the normalized ridge cost for left-correlated
Gaussian designs.

For a design W = Psi^(1/2) Wbar with Wbar iid standard normal, the normalized
ridge cost at its minimizer concentrates (over signal and noise) around

    alpha(t) = xi1(lambda) * sigma_x^2 + xi2(lambda) * sigma_n^2,  t = K / lambda,

where the coefficients are spectral functionals of Psi:

    delta(t)      unique positive root of  delta = (1/K) sum_i q_i / (1 + c q_i),
                  with c = t / (1 + t delta),
    tr_psi_t(t)   = sum_i q_i / (1 + c q_i)   (= K delta identically),
    xi1           = tr_psi_t / (1 + t delta),
    xi2           = M/K - t * tr_psi_t / (K (1 + t delta)).

Everything is evaluated in the eigenbasis of Psi, so no M x M resolvent is
ever materialized. ``solve_delta`` runs plain Picard iteration for up to
``PICARD_STEPS`` steps and, where the map contracts slowly (square systems at
small penalties), finishes with Newton's method from the last Picard iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConvergenceError, DefinitenessError, DimensionError
from .numerics import sym_eig

__all__ = [
    "CorrelationSpectrum",
    "DeterministicEquivalents",
    "solve_delta",
    "trace_psi_t",
    "coefficients",
    "alpha",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000
# Picard steps before the Newton finish; a root Picard reaches within them is
# returned exactly as plain Picard iteration would return it.
PICARD_STEPS = 100
# Eigenvalues of a nominally PSD correlation matrix may go slightly negative
# from round-off; below this relative threshold they are floored, beyond it
# the matrix is treated as genuinely indefinite.
EIG_FLOOR_REL = 1e-8


@dataclass(frozen=True, eq=False)
class CorrelationSpectrum:
    """Spectral form of the left correlation matrix Psi = U diag(q) U^T.

    ``basis`` is None when Psi is diagonal in the standard basis; the square
    root then reduces to a row scaling. Eigenvalues must be nonnegative so a
    real Psi^(1/2) exists.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        q = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", q)
        if q.ndim != 1 or q.size == 0:
            raise DimensionError("eigenvalues must be a nonempty vector")
        if not np.all(np.isfinite(q)):
            raise DimensionError("eigenvalues contain non-finite entries")
        if np.any(q < 0):
            raise DefinitenessError(
                f"correlation eigenvalues must be nonnegative; most negative is {q.min():.3e}"
            )
        if q.sum() <= 0:
            raise DefinitenessError("correlation matrix has zero trace")
        if self.basis is not None:
            u = np.asarray(self.basis, dtype=float)
            object.__setattr__(self, "basis", u)
            if u.shape != (q.size, q.size):
                raise DimensionError(f"basis shape {u.shape} does not match dim {q.size}")
            gram_err = np.max(np.abs(u.T @ u - np.eye(q.size)))
            if gram_err > 1e-8:
                raise DimensionError(f"basis is not orthonormal (max |U^T U - I| = {gram_err:.3e})")

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def diagonal(self) -> bool:
        return self.basis is None

    @property
    def trace(self) -> float:
        return float(self.eigenvalues.sum())

    @cached_property
    def sqrt_matrix(self) -> np.ndarray:
        """Dense Psi^(1/2); cached because scenario synthesis reuses it per trial."""
        root = np.sqrt(self.eigenvalues)
        if self.diagonal:
            return np.diag(root)
        return self.basis @ (root[:, None] * self.basis.T)

    def sqrt_apply(self, matrix: np.ndarray) -> np.ndarray:
        """Psi^(1/2) @ matrix without forming the dense square root in the diagonal case."""
        if self.diagonal:
            return np.sqrt(self.eigenvalues)[:, None] * matrix
        return self.sqrt_matrix @ matrix

    def matrix(self) -> np.ndarray:
        """Reconstruct dense Psi."""
        if self.diagonal:
            return np.diag(self.eigenvalues)
        return self.basis @ (self.eigenvalues[:, None] * self.basis.T)

    @classmethod
    def from_matrix(cls, psi) -> "CorrelationSpectrum":
        """Build from a dense symmetric nonnegative-definite matrix.

        Eigenvalues in [-EIG_FLOOR_REL * q_max, 0) are floored to zero (round-off
        from the eigensolver); anything more negative raises DefinitenessError.
        """
        pair = sym_eig(psi)
        q = pair.eigenvalues.copy()
        q_max = float(q.max())
        if q_max <= 0:
            raise DefinitenessError("correlation matrix has no positive eigenvalue")
        if q.min() < -EIG_FLOOR_REL * q_max:
            raise DefinitenessError(
                f"correlation matrix is indefinite: most negative eigenvalue {q.min():.6e} "
                f"is below -{EIG_FLOOR_REL:g} * q_max = {-EIG_FLOOR_REL * q_max:.6e}"
            )
        q[q < 0] = 0.0
        return cls(eigenvalues=q, basis=pair.eigenvectors)

    @classmethod
    def from_diagonal(cls, diag) -> "CorrelationSpectrum":
        """Build from the diagonal of a diagonal Psi (entries are the eigenvalues)."""
        return cls(eigenvalues=np.asarray(diag, dtype=float), basis=None)


@dataclass(frozen=True)
class DeterministicEquivalents:
    """Per-lambda bundle of deterministic quantities consumed by the estimator.

    ``fixed_point_iters`` counts the Picard and Newton steps of ``solve_delta``.
    """

    lam: float
    t: float
    delta: float
    trace_psi_t: float
    xi1: float
    xi2: float
    fixed_point_iters: int


def _fixed_point_map(q: np.ndarray, K: int, t: float, delta: float) -> float:
    c = t / (1.0 + t * delta)
    return float(np.sum(q / (1.0 + c * q)) / K)


def solve_delta(spectrum: CorrelationSpectrum, K: int, t: float,
                tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> tuple[float, int]:
    """Solve the scalar fixed point delta = F(delta) = (1/K) sum_i q_i / (1 + c q_i),
    c = t / (1 + t delta).

    Plain Picard iteration starts from the upper bound delta_0 = tr(Q)/K; F is
    increasing and concave, so the iterates decrease monotonically to the
    unique positive root. Where Picard has not converged within
    ``PICARD_STEPS`` steps (its rate nears 1 on square systems), Newton's
    method on the convex g(d) = d - F(d), with
    g'(d) = 1 - c^2 sum_i q_i^2 / (1 + c q_i)^2 / K, descends from the last
    Picard iterate onto the root; a step that rounding sends outside the
    bracket [0, last Picard iterate] is replaced by bisection. g is evaluated
    as d B - (1 - B) / t with B = (K - M + sum_i 1 / (1 + c q_i)) / K, which
    near M = K is a sum of positive terms, where d - F(d) cancels and would
    leave the root off by up to 1e-12 relative. Newton stops once its step
    is at most ``tol * max(delta, 1)`` and returns delta minus that step.

    ``max_iter`` bounds the Picard and Newton steps together. Returns
    (delta, steps taken); the returned value satisfies
    |delta - F(delta)| <= tol * max(delta, 1).
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    q = spectrum.eigenvalues
    delta = float(q.sum()) / K
    for iteration in range(1, min(max_iter, PICARD_STEPS) + 1):
        nxt = _fixed_point_map(q, K, t, delta)
        if abs(nxt - delta) <= tol * max(nxt, 1.0):
            return nxt, iteration
        delta = nxt
    lo, hi = 0.0, delta
    for iteration in range(PICARD_STEPS + 1, max_iter + 1):
        c = t / (1.0 + t * delta)
        u = 1.0 / (1.0 + c * q)
        b = (K - q.size + float(np.sum(u))) / K
        gap = delta * b - (1.0 - b) / t
        if gap > 0:
            hi = delta
        else:
            lo = delta
        slope = 1.0 - c * c * float(np.sum((q * u) ** 2)) / K
        step = gap / slope if slope > 0 else math.inf
        if abs(step) <= tol * max(delta, 1.0):
            return delta - step, iteration
        delta = delta - step if lo < delta - step < hi else 0.5 * (lo + hi)
    residual = abs(_fixed_point_map(q, K, t, delta) - delta)
    raise ConvergenceError(
        f"fixed point did not converge in {max_iter} iterations (t={t:g}, residual={residual:.3e})",
        last_iterate=delta,
        residual=residual,
    )


def trace_psi_t(spectrum: CorrelationSpectrum, t: float, delta: float) -> float:
    """Trace of Psi against the resolvent at (t, delta), computed in the eigenbasis.

    For t = 0 this is tr(Psi); for delta solving the fixed point at t it
    equals K * delta identically, which downstream code uses as a self-check.
    """
    if t == 0:
        return spectrum.trace
    c = t / (1.0 + t * delta)
    q = spectrum.eigenvalues
    return float(np.sum(q / (1.0 + c * q)))


def coefficients(spectrum: CorrelationSpectrum, M: int, K: int, lam: float) -> DeterministicEquivalents:
    """Deterministic coefficients (xi1, xi2) of the predicted cost at penalty ``lam``."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if spectrum.dim != M:
        raise DimensionError(f"spectrum dim {spectrum.dim} != M = {M}")
    t = K / lam
    delta, iters = solve_delta(spectrum, K, t)
    tr = trace_psi_t(spectrum, t, delta)
    denom = 1.0 + t * delta
    xi1 = tr / denom
    xi2 = M / K - t * tr / (K * denom)
    return DeterministicEquivalents(
        lam=lam, t=t, delta=delta, trace_psi_t=tr, xi1=xi1, xi2=xi2,
        fixed_point_iters=iters,
    )


def alpha(coeffs: DeterministicEquivalents, sigma_x2: float, sigma_n2: float) -> float:
    """Predicted normalized ridge cost for the given signal and noise variances."""
    if sigma_x2 < 0 or sigma_n2 < 0:
        raise ValueError("variances must be nonnegative")
    return coeffs.xi1 * sigma_x2 + coeffs.xi2 * sigma_n2
