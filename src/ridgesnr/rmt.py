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
ever materialized. ``solve_delta_grid`` solves a whole penalty grid together,
one row of a (penalties x eigenvalues) array per penalty: Picard iteration for
up to ``PICARD_STEPS`` steps, then Newton's method where the map contracts
slowly (square systems at small penalties). A penalty leaves Picard early, at
a power-of-two step, once its step and step ratio show that Picard cannot
finish it within ``PICARD_STEPS`` steps; every penalty Picard can finish keeps
plain Picard's result. Newton needs no bracket: g(d) =
d - F(d) is convex with g(0) < 0, so from at or above the root it descends
without overshooting. ``coefficients_grid`` returns the rows (xi1, xi2) of Xi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConvergenceError, DefinitenessError, DimensionError
from .numerics import sym_eig

__all__ = ["CorrelationSpectrum", "solve_delta_grid", "coefficients_grid", "alpha"]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000
# Picard steps before the Newton finish; a root Picard reaches within them is
# returned exactly as plain Picard iteration would return it, and a t that
# provably cannot reach it within them leaves for Newton sooner.
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

    @cached_property
    def sqrt_eigenvalues(self) -> np.ndarray:
        """Square roots of the eigenvalues; cached because scenario synthesis reuses them."""
        return np.sqrt(self.eigenvalues)

    @cached_property
    def sqrt_matrix(self) -> np.ndarray:
        """Dense Psi^(1/2); cached because scenario synthesis reuses it per trial."""
        root = self.sqrt_eigenvalues
        if self.diagonal:
            return np.diag(root)
        return self.basis @ (root[:, None] * self.basis.T)

    def sqrt_apply(self, matrix: np.ndarray) -> np.ndarray:
        """Psi^(1/2) @ matrix without forming the dense square root in the diagonal case."""
        if self.diagonal:
            return self.sqrt_eigenvalues[:, None] * matrix
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
        q, basis = sym_eig(psi)
        q_max = float(q.max())
        if q_max <= 0:
            raise DefinitenessError("correlation matrix has no positive eigenvalue")
        if q.min() < -EIG_FLOOR_REL * q_max:
            raise DefinitenessError(
                f"correlation matrix is indefinite: most negative eigenvalue {q.min():.6e} "
                f"is below -{EIG_FLOOR_REL:g} * q_max = {-EIG_FLOOR_REL * q_max:.6e}"
            )
        q[q < 0] = 0.0
        return cls(eigenvalues=q, basis=basis)

    @classmethod
    def from_diagonal(cls, diag) -> "CorrelationSpectrum":
        """Build from the diagonal of a diagonal Psi (entries are the eigenvalues)."""
        return cls(eigenvalues=np.asarray(diag, dtype=float), basis=None)


def _psi_t(q: np.ndarray, t, delta):
    """sum_i q_i / (1 + c q_i), c = t / (1 + t delta), per (t, delta) pair; each sum
    runs along a contiguous last axis, so it has the bits of a 1-D sum."""
    c = t / (1.0 + t * delta)
    return (q / (1.0 + np.multiply.outer(c, q))).sum(axis=-1)


def _positive_finite(values, name: str) -> np.ndarray:
    """``values`` as a float array whose every entry is checked positive and finite."""
    values = np.asarray(values, dtype=float)
    bad = ~(np.isfinite(values) & (values > 0))
    if bad.any():
        raise ValueError(f"{name} must be positive and finite, got {values[bad][0]}")
    return values


def solve_delta_grid(spectrum: CorrelationSpectrum, K: int, ts, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> tuple[np.ndarray, np.ndarray]:
    """Solve delta = F(delta) = (1/K) sum_i q_i / (1 + c q_i), c = t / (1 + t delta),
    at every t of the 1-D grid ``ts`` together.

    Picard iteration starts from the upper bound tr(Q)/K; F is increasing and
    concave, so the iterates decrease to the unique positive root, and each t
    keeps its first iterate with |F(delta) - delta| <= tol * max(F(delta), 1).
    The step s_j = delta_(j-1) - delta_j is then F's secant slope times s_(j-1),
    over an interval that moves down, so the ratio r_j = s_j / s_(j-1) never
    falls, while the bound tol * max(F, 1) never rises. A t whose
    s_j r_j^(PICARD_STEPS - j) exceeds its bound at a power-of-two step j >= 4
    therefore cannot finish within ``PICARD_STEPS`` steps (Picard's rate nears 1
    on square systems); it leaves Picard then, as does a t still open after
    ``PICARD_STEPS`` steps. Every t that Picard can finish keeps the bits
    and step count of plain Picard iteration.

    The t that leave finish with Newton on the convex g(d) = d - F(d), from
    their last Picard iterate, at or above the root; g(0) < 0, so g rises from
    the root on and Newton descends to it without overshooting. A step of at
    most tol * max(delta, 1) ends with delta minus that step. g is evaluated as
    d B - (1 - B) / t, B = (K - M + sum_i 1 / (1 + c q_i)) / K, a sum of positive
    terms near M = K, where d - F(d) cancels and would leave the root up to
    1e-12 relative off.

    ``max_iter`` bounds the steps of both phases of each t together;
    ConvergenceError names the first t of the grid that uses it up. Returns
    arrays (delta, steps taken) over ``ts``, with
    |delta - F(delta)| <= tol * max(delta, 1).
    """
    ts = _positive_finite(ts, "t")
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    q = spectrum.eigenvalues
    deltas, steps = np.full(ts.size, float(q.sum()) / K), np.zeros(ts.size, dtype=int)
    unsolved = np.zeros(ts.size, dtype=bool)  # the t handed to Newton and still open there
    picard_steps = min(max_iter, PICARD_STEPS)
    rows, t, delta = np.arange(ts.size), ts, deltas.copy()
    for iteration in range(1, picard_steps + 1):
        if not rows.size:
            break
        nxt = _psi_t(q, t, delta) / K
        step = np.abs(nxt - delta)
        bound = tol * np.maximum(nxt, 1.0)
        leave = step <= bound
        if iteration >= 4 and iteration & (iteration - 1) == 0:  # the docstring's exit test
            stuck = step * (step / last) ** (PICARD_STEPS - iteration) > bound
            if stuck.any():
                stuck &= ~leave
                unsolved[rows[stuck]] = True
                leave |= stuck
        if leave.any():  # retire the converged t, hand on the stuck ones
            deltas[rows[leave]], steps[rows[leave]] = nxt[leave], iteration
            rows, t, nxt, step = (a[~leave] for a in (rows, t, nxt, step))
        delta, last = nxt, step
    deltas[rows], steps[rows], unsolved[rows] = delta, picard_steps, True
    rows = np.flatnonzero(unsolved & (steps < max_iter))  # a t with no steps left stays open
    t, delta = ts[rows], deltas[rows]
    while rows.size:
        c = t / (1.0 + t * delta)
        u = 1.0 / (1.0 + np.multiply.outer(c, q))
        b = (K - q.size + np.sum(u, axis=1)) / K
        gap = delta * b - (1.0 - b) / t
        step = gap / (1.0 - c * c * np.sum((q * u) ** 2, axis=1) / K)
        nxt = delta - step
        steps[rows] += 1
        done = np.abs(step) <= tol * np.maximum(delta, 1.0)
        unsolved[rows[done]] = False
        leave = done | (steps[rows] >= max_iter)
        if leave.any():  # retire the converged t and those out of steps
            deltas[rows[leave]] = nxt[leave]
            rows, t, nxt = (a[~leave] for a in (rows, t, nxt))
        delta = nxt
    if unsolved.any():
        row = int(np.argmax(unsolved))
        t, last = ts[row], deltas[row]
        residual = float(abs(_psi_t(q, t, last) / K - last))
        raise ConvergenceError(f"fixed point did not converge in {max_iter} iterations "
                               f"(lambda={K / t:g}, t={t:g}, residual={residual:.3e})",
                               last_iterate=float(last), residual=residual)
    return deltas, steps


def coefficients_grid(spectrum: CorrelationSpectrum, M: int, K: int,
                      lambdas) -> tuple[np.ndarray, np.ndarray]:
    """Xi, the (penalties, 2) array of coefficients (xi1, xi2) of the predicted cost
    at every penalty of ``lambdas``, and the fixed-point steps each penalty took.

    A penalty so small that a product the coefficients need overflows is
    rejected: t = K / lambda (a subnormal lambda), t delta at the fixed point's
    starting iterate delta = tr(Psi) / K, or t tr and K (1 + t delta) in xi2."""
    lams = _positive_finite(lambdas, "lambda")
    if spectrum.dim != M:
        raise DimensionError(f"spectrum dim {spectrum.dim} != M = {M}")
    with np.errstate(over="ignore"):
        t = K / lams
        start = t * (float(spectrum.eigenvalues.sum()) / K)
    # tr(Psi) > 0, so an infinite t makes start infinite too
    _reject_overflow(lams, np.isfinite(start), f"t = K / lambda or t delta at the fixed "
                     f"point's starting iterate delta = tr(Psi) / K overflows at K = {K}")
    delta, steps = solve_delta_grid(spectrum, K, t)
    tr = _psi_t(spectrum.eigenvalues, t, delta)
    denom = 1.0 + t * delta
    with np.errstate(over="ignore"):
        t_tr, k_denom = t * tr, K * denom
    _reject_overflow(lams, np.isfinite(t_tr) & np.isfinite(k_denom),
                     "t tr or K (1 + t delta) overflows in xi2")
    return np.stack([tr / denom, M / K - t_tr / k_denom], axis=1), steps


def _reject_overflow(lams: np.ndarray, finite: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first penalty of ``lams`` whose ``finite`` entry is False."""
    if not finite.all():
        raise ValueError(f"lambda {lams[~finite][0]} is too small: {what}")


def alpha(xi: np.ndarray, sigma_x2: float, sigma_n2: float) -> np.ndarray:
    """Predicted normalized ridge cost at every row (xi1, xi2) of ``xi`` for the given
    signal and noise variances."""
    if sigma_x2 < 0 or sigma_n2 < 0:
        raise ValueError("variances must be nonnegative")
    return xi[:, 0] * sigma_x2 + xi[:, 1] * sigma_n2
