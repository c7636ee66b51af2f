"""Dense numerical kernels: symmetric eigendecomposition and an exact
two-variable nonnegative least-squares solver.

The eigendecomposition is a thin validated front over LAPACK; the NNLS solver
is specialized to two unknowns and solved exactly, by one unconstrained fit or
else by enumerating the other active sets.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionError

__all__ = ["sym_eig", "nnls_2var"]


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


def nnls_2var(xi, phi) -> tuple[np.ndarray, float]:
    """Minimize 0.5*||phi - Xi @ sigma||^2 subject to sigma >= 0, for Xi with 2 columns.

    Solved exactly: the optimum of this convex QP zeroes some subset of the
    variables and solves unconstrained least squares over the rest. A
    nonnegative unconstrained solution is therefore the optimum and is returned
    at once; otherwise keeping the feasible one of the other three candidates
    (x only, n only, zero) with the smallest objective is exhaustive. Rank-deficient
    subproblems fall back to the minimum-norm solution; the all-zero candidate
    is always feasible, so the solver never fails.

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

    sigma, *_ = np.linalg.lstsq(xi, phi, rcond=None)
    if np.all(sigma >= 0):
        return sigma, float(np.linalg.norm(phi - xi @ sigma))
    best_sigma = None
    best_obj = np.inf
    for free in ([0], [1], []):
        sigma = np.zeros(2)
        if free:
            sol, *_ = np.linalg.lstsq(xi[:, free], phi, rcond=None)
            sigma[free] = sol
        if np.any(sigma < 0):
            continue
        obj = 0.5 * np.sum((phi - xi @ sigma) ** 2)
        if obj < best_obj:
            best_obj = obj
            best_sigma = sigma
    residual = float(np.linalg.norm(phi - xi @ best_sigma))
    return best_sigma, residual
