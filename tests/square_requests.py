"""Square (M = K) estimate requests written to CSV files, and an estimate of
their variances computed without the package."""

import math

import numpy as np
from scipy.optimize import brentq


def write_square_request(directory, seed: int, m: int):
    """y.csv, wbar.csv and psi.csv of an m x m request in ``directory``: an
    exponential correlation, random variances and one draw, written at 17
    significant digits. Returns (paths, (psi, wbar, y))."""
    rng = np.random.default_rng([seed, m])
    offsets = np.arange(m, dtype=float)
    psi = rng.uniform(0.2, 0.6) ** ((offsets[:, None] - offsets[None, :]) ** 2)
    q, basis = np.linalg.eigh(psi)
    root = (basis * np.sqrt(np.clip(q, 0.0, None))) @ basis.T
    sigma_x2 = rng.uniform(0.5, 2.0)
    sigma_n2 = sigma_x2 * 10.0 ** (-rng.uniform(0.0, 20.0) / 10.0)
    wbar = rng.standard_normal((m, m))
    y = (root @ wbar @ rng.normal(0.0, math.sqrt(sigma_x2), m)
         + rng.normal(0.0, math.sqrt(sigma_n2), m))
    paths = [directory / name for name in ("y.csv", "wbar.csv", "psi.csv")]
    for path, data in zip(paths, (y[:, None], wbar, psi)):
        np.savetxt(path, data, fmt="%.17g", delimiter=",")
    return paths, (psi, wbar, y)


def reference_estimate(psi, wbar, y, grid) -> np.ndarray:
    """(sigma_x2_hat, sigma_n2_hat) computed without the package.

    The fixed point is bracketed and solved by brentq, each ridge cost comes
    from one SVD of the design, and the 2-variable nonnegative least squares
    tries every support.
    """
    m, k = wbar.shape
    q, basis = np.linalg.eigh(psi)
    q = np.clip(q, 0.0, None)
    u, s, _ = np.linalg.svd((basis * np.sqrt(q)) @ basis.T @ wbar, full_matrices=False)
    coords = u.T @ y
    outside = max(float(y @ y - coords @ coords), 0.0)
    xi, phi = [], []
    for lam in grid:
        t = k / lam
        delta = brentq(lambda d: d - np.sum(q / (1.0 + q * t / (1.0 + t * d))) / k,
                       0.0, q.sum() / k, xtol=1e-300, rtol=4 * np.finfo(float).eps)
        denom = 1.0 + t * delta
        xi.append((k * delta / denom, m / k - t * delta / denom))
        phi.append(lam / k * (np.sum(coords ** 2 / (s ** 2 + lam)) + outside / lam))
    xi, phi = np.array(xi), np.array(phi)
    best, best_obj = np.zeros(2), float(phi @ phi)
    for support in ([0, 1], [0], [1]):
        sigma = np.zeros(2)
        sigma[support] = np.linalg.lstsq(xi[:, support], phi, rcond=None)[0]
        obj = float(np.sum((phi - xi @ sigma) ** 2))
        if np.all(sigma >= 0) and obj < best_obj:
            best, best_obj = sigma, obj
    return best
