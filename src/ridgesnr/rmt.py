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

Everything is evaluated in the eigenbasis of Psi (``sym_eig`` of a dense Psi,
eigenvalues descending), so no M x M resolvent is ever materialized.
``solve_delta_grid`` solves a whole penalty grid together, one row of a
(penalties x eigenvalues) array per penalty: Picard iteration, then Newton's
method for the penalties Picard cannot finish within ``PICARD_STEPS`` steps
(square systems at small penalties).
``coefficients_grid`` returns the rows (xi1, xi2) of Xi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConvergenceError, DefinitenessError, DimensionError

__all__ = ["sym_eig", "CorrelationSpectrum", "solve_delta_grid", "coefficients_grid", "alpha"]

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


def _as_matrix(a, name: str = "A") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be two-dimensional, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise DimensionError(f"{name} contains non-finite entries")
    return a


def sym_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a symmetric matrix, as from ``np.linalg.eigh``
    but with the eigenvalues descending and the eigenvector columns in their order.

    The input must be square and symmetric to a 1e-12 relative tolerance;
    asymmetry beyond that raises DimensionError rather than being silently
    symmetrized.
    """
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise DimensionError(f"matrix must be square, got {n}x{m}")
    scale = np.max(np.abs(a)) or 1.0
    if np.max(np.abs(a - a.T)) > 1e-12 * scale:
        raise DimensionError("matrix is not symmetric within 1e-12 relative tolerance")
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


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

    def _compose(self, values: np.ndarray) -> np.ndarray:
        """U diag(values) U^T: dense, or the vector ``values`` itself when Psi is diagonal."""
        return values if self.diagonal else self.basis @ (values[:, None] * self.basis.T)

    @cached_property
    def _root(self) -> np.ndarray:
        """Psi^(1/2) as ``_compose`` gives it; cached because scenario synthesis reuses it."""
        return self._compose(np.sqrt(self.eigenvalues))

    def sqrt_apply(self, matrix: np.ndarray) -> np.ndarray:
        """Psi^(1/2) @ matrix, a row scaling when Psi is diagonal."""
        return self._root[:, None] * matrix if self.diagonal else self._root @ matrix

    def matrix(self) -> np.ndarray:
        """Reconstruct dense Psi."""
        psi = self._compose(self.eigenvalues)
        return np.diag(psi) if self.diagonal else psi

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


def solve_delta_grid(spectrum: CorrelationSpectrum, K: int, ts) -> tuple[np.ndarray, np.ndarray]:
    """Solve delta = F(delta) = (1/K) sum_i q_i / (1 + c q_i), c = t / (1 + t delta),
    at every t of the 1-D grid ``ts`` together, to the tolerance tol = ``DEFAULT_TOL``
    within a budget of ``DEFAULT_MAX_ITER`` steps, both read at each call.

    Picard iteration starts from the upper bound tr(Q)/K; F is increasing and
    concave, so the iterates decrease to the unique positive root, and each t
    keeps its first iterate with |F(delta) - delta| <= tol * max(F(delta), 1).
    The step s_j = delta_(j-1) - delta_j is then F's secant slope times s_(j-1),
    over an interval that moves down, so the ratio r_j = s_j / s_(j-1) never
    falls, while the bound tol * max(F, 1) never rises. A t whose
    s_j r_j^(PICARD_STEPS - j) exceeds its bound at a power-of-two step j >= 4
    therefore cannot finish within ``PICARD_STEPS`` steps; Picard hands it on to
    Newton then, as it does every t still open after ``PICARD_STEPS`` steps.
    Every t that Picard can finish keeps the bits and step count of plain Picard.

    Newton runs on the convex g(d) = d - F(d) from the handed-on iterate, at or
    above the root; g(0) < 0, so from there it can only descend. It stops on a
    step of at most tol * max(delta, 1), or on one that is not positive: that is
    the rounding of g, which near a tiny slope g' would otherwise make Newton
    cycle about the root. Either way it keeps delta minus that step. g is
    evaluated as d B - (1 - B) / t, B = (K - M + sum_i 1 / (1 + c q_i)) / K, a
    sum of positive terms near M = K, where d - F(d) cancels. Its slope
    g' = 1 - sum_i (c q_i u_i)^2 / K, u_i = 1 / (1 + c q_i), rounds to 0 once every
    c q_i exceeds 2^53; a t whose slope is not positive stops without a step.

    ``DEFAULT_MAX_ITER`` bounds the steps of both phases of each t together;
    ConvergenceError names the first t of the grid that uses it up.
    Returns arrays (delta, steps taken) over ``ts`` with, at every t, delta > 0
    and |F(delta) - delta| <= tol * max(delta, 1); otherwise (a flat slope, or a
    Newton step that rounding carried past the root) ConvergenceError names the
    first t that breaks it. The bound is on the residual, not on delta's error:
    on Psi = diag(logspace(-300, 300, 40)) with K = 20, the returned delta can lie
    more than 1e-10 relative from the 60-digit root.
    """
    ts = _positive_finite(ts, "t")
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    tol, max_iter = DEFAULT_TOL, DEFAULT_MAX_ITER
    q = spectrum.eigenvalues
    deltas, steps = np.full(ts.size, float(q.sum()) / K), np.zeros(ts.size, dtype=int)
    newton = np.zeros(ts.size, dtype=bool)  # the t Picard hands on, until Newton stops them
    rows, t, delta = np.arange(ts.size), ts, deltas.copy()
    for iteration in range(1, PICARD_STEPS + 1):
        if not rows.size:
            break
        nxt = _psi_t(q, t, delta) / K
        step = np.abs(nxt - delta)
        bound = tol * np.maximum(nxt, 1.0)
        leave = step <= bound
        if iteration in (max_iter, PICARD_STEPS):  # Picard's last step hands every open t on
            newton[rows[~leave]] = True
            leave[:] = True
        elif iteration >= 4 and iteration & (iteration - 1) == 0:  # the docstring's exit test
            stuck = ~leave & (step * (step / last) ** (PICARD_STEPS - iteration) > bound)
            newton[rows[stuck]] = True
            leave |= stuck
        if leave.any():
            deltas[rows[leave]], steps[rows[leave]] = nxt[leave], iteration
            rows, t, nxt, step = (a[~leave] for a in (rows, t, nxt, step))
        delta, last = nxt, step
    rows = np.flatnonzero(newton & (steps < max_iter))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed c q reads as flat
        while rows.size:
            t, delta = ts[rows], deltas[rows]
            cq = np.multiply.outer(t / (1.0 + t * delta), q)
            u = 1.0 / (1.0 + cq)
            b = (K - q.size + np.sum(u, axis=1)) / K
            gap = delta * b - (1.0 - b) / t
            slope = 1.0 - np.sum((cq * u) ** 2, axis=1) / K  # c q u < 1: no overflow
            flat = ~(slope > 0)  # c q u rounded to 1 (or c q overflowed): no step; the t stays open
            rows, delta, gap, slope = (a[~flat] for a in (rows, delta, gap, slope))
            step = gap / slope
            deltas[rows], steps[rows] = delta - step, steps[rows] + 1
            done = step <= tol * np.maximum(delta, 1.0)  # a step that does not descend is rounding
            newton[rows[done]] = False
            rows = rows[~done & (steps[rows] < max_iter)]
        residuals = np.abs(_psi_t(q, ts, deltas) / K - deltas)
    budget = newton & (steps >= max_iter)
    short = newton | ~((0.0 < deltas) & (deltas < np.inf)
                       & (residuals <= tol * np.maximum(deltas, 1.0)))
    for off in (budget, short):
        if off.any():
            row = int(np.argmax(off))
            t, last, residual = ts[row], float(deltas[row]), float(residuals[row])
            why = (f"did not converge in {max_iter} iterations" if off is budget
                   else f"stopped short of a positive root at delta={last:.6g}")
            raise ConvergenceError(f"fixed point {why} (lambda={K / t:g}, t={t:g}, "
                                   f"residual={residual:.3e})", last_iterate=last,
                                   residual=residual)
    return deltas, steps


def coefficients_grid(spectrum: CorrelationSpectrum, K: int,
                      lambdas) -> tuple[np.ndarray, np.ndarray]:
    """Xi, the (penalties, 2) array of coefficients (xi1, xi2) of the predicted cost, M being
    ``spectrum.dim``, at every penalty of ``lambdas``, and the fixed-point steps each took.

    A penalty so small that a product the coefficients need overflows is
    rejected: t = K / lambda (a subnormal lambda), t delta at the fixed point's
    starting iterate delta = tr(Psi) / K, or t tr and K (1 + t delta) in xi2."""
    lams = _positive_finite(lambdas, "lambda")
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
    return np.stack([tr / denom, spectrum.dim / K - t_tr / k_denom], axis=1), steps


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
