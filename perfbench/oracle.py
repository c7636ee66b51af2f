"""Independent reference for one blind SNR estimate.

It shares no code with the package: the fixed point is bracketed and solved
with ``scipy.optimize.brentq``, the ridge cost comes from one SVD of the
design, and the 2-variable nonnegative least squares enumerates every support.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

# Relative tolerance on (sigma_x2, sigma_n2), scaled by sigma_x2 + sigma_n2.
# Plain fixed-point iteration stopped at a 1e-12 step leaves errors up to
# about 1e-7 on square systems, where the map contracts slowly.
RTOL = 1e-5


def coefficients(q: np.ndarray, m: int, k: int, lam: float) -> tuple[float, float]:
    """(xi1, xi2) at penalty ``lam`` for correlation eigenvalues ``q``."""
    t = k / lam

    def gap(delta: float) -> float:
        return delta - np.sum(q / (1.0 + q * t / (1.0 + t * delta))) / k

    delta = brentq(gap, 0.0, q.sum() / k, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)
    trace = k * delta
    denom = 1.0 + t * delta
    return trace / denom, m / k - t * trace / (k * denom)


def ridge_costs(design: np.ndarray, y: np.ndarray, grid) -> np.ndarray:
    """Normalized ridge cost lam * y^T (W W^T + lam I)^-1 y / K for every penalty."""
    u, s, _ = np.linalg.svd(design, full_matrices=False)
    coords = u.T @ y
    outside = max(float(y @ y - coords @ coords), 0.0)
    k = design.shape[1]
    return np.array([lam / k * (np.sum(coords ** 2 / (s ** 2 + lam)) + outside / lam)
                     for lam in grid])


def nnls_2var(xi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Exact 2-variable NNLS: the best feasible least-squares fit over every support."""
    best, best_obj = np.zeros(2), float(phi @ phi)
    for support in ([0, 1], [0], [1]):
        sigma = np.zeros(2)
        sigma[support] = np.linalg.lstsq(xi[:, support], phi, rcond=None)[0]
        if np.any(sigma < 0):
            continue
        obj = float(np.sum((phi - xi @ sigma) ** 2))
        if obj < best_obj:
            best, best_obj = sigma, obj
    return best


def estimate(psi: np.ndarray, wbar: np.ndarray, y: np.ndarray, grid) -> np.ndarray:
    """Reference (sigma_x2_hat, sigma_n2_hat) for y = Psi^(1/2) Wbar x0 + n."""
    m, k = wbar.shape
    q, basis = np.linalg.eigh(psi)
    q = np.clip(q, 0.0, None)
    design = (basis * np.sqrt(q)) @ basis.T @ wbar
    xi = np.array([coefficients(q, m, k, lam) for lam in grid])
    return nnls_2var(xi, ridge_costs(design, y, grid))


def agrees(sigma, reference) -> bool:
    """True when an estimate matches the reference within RTOL."""
    sigma = np.asarray(sigma, dtype=float)
    scale = float(np.sum(np.abs(reference))) or 1.0
    return bool(np.all(np.isfinite(sigma)) and np.max(np.abs(sigma - reference)) <= RTOL * scale)
