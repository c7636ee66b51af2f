import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ridgesnr import (
    ConvergenceError,
    CorrelationSpectrum,
    DefinitenessError,
    DimensionError,
    alpha,
    coefficients_grid,
    scenario_catalog,
    solve_delta_grid,
    sym_eig,
)
from ridgesnr import rmt
from ridgesnr.harness import _correlation_for
from ridgesnr.rmt import PICARD_STEPS
from ridgesnr.scenarios import SCENARIO_NAMES

DEFAULT_GRID = (1e-3, 2e-3, 3e-3, 4e-3)
TINY_GRID = (1e-6, 2e-6, 3e-6, 4e-6)


def closed_form_delta(t: float) -> float:
    """For Psi = I and M = K the fixed point reduces to t d^2 + d - 1 = 0."""
    return (math.sqrt(1.0 + 4.0 * t) - 1.0) / (2.0 * t)


def fixed_point_map(q: np.ndarray, k: int, t: float, delta: float) -> float:
    c = t / (1.0 + t * delta)
    return float(np.sum(q / (1.0 + c * q)) / k)


def bisection_delta(q: np.ndarray, k: int, t: float, tol: float = 1e-14) -> float:
    """Independent oracle: root of g(d) = d - F(d) on [1e-12, sum(q)/k].

    g changes sign across the bracket and the positive root is unique, so
    plain bisection converges regardless of the iteration used elsewhere.
    """
    lo, hi = 1e-12, float(q.sum()) / k
    if hi <= lo:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - fixed_point_map(q, k, t, mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def mpmath_delta(q: np.ndarray, k: int, t: float) -> float:
    """Independent oracle: the root of d - F(d) in 50-digit arithmetic."""
    with mpmath.workdps(50):
        qs = [mpmath.mpf(float(v)) for v in q]
        tt = mpmath.mpf(t)

        def gap(d):
            c = tt / (1 + tt * d)
            return d - mpmath.fsum(v / (1 + c * v) for v in qs) / k

        return float(mpmath.findroot(gap, (mpmath.mpf(0), mpmath.fsum(qs) / k),
                                     solver="anderson"))


def plain_picard(q: np.ndarray, k: int, t: float, tol: float = 1e-12,
                 steps: int = PICARD_STEPS) -> tuple[float, int] | None:
    """Picard iteration from tr(Q)/k with no early exit: the first iterate within
    tol of its predecessor and its step, or None if ``steps`` steps do not reach one."""
    delta = float(q.sum()) / k
    for iteration in range(1, steps + 1):
        nxt = fixed_point_map(q, k, t, delta)
        if abs(nxt - delta) <= tol * max(nxt, 1.0):
            return nxt, iteration
        delta = nxt
    return None


def per_penalty_delta(q: np.ndarray, k: int, t: float, tol: float = 1e-12,
                      max_iter: int = 10_000) -> tuple[float, int]:
    """The fixed point at one t, written out as scalar loops: plain Picard iteration
    from tr(Q)/k for up to PICARD_STEPS steps, left at a power-of-two step j >= 4
    where the step s_j times the step ratio r_j = s_j / s_(j-1) to the power
    PICARD_STEPS - j exceeds tol * max(F, 1); then Newton on
    g(d) = d B - (1 - B)/t, B = (k - m + sum 1/(1 + c q))/k, bisecting a step
    that leaves the bracket [lo, hi] (first [0, last Picard iterate])."""
    delta = float(q.sum()) / k
    for picard in range(1, min(max_iter, PICARD_STEPS) + 1):
        nxt = fixed_point_map(q, k, t, delta)
        step, bound = abs(nxt - delta), tol * max(nxt, 1.0)
        if step <= bound:
            return nxt, picard
        delta = nxt
        if picard >= 4 and picard & (picard - 1) == 0 and \
                step * (step / last) ** (PICARD_STEPS - picard) > bound:
            break
        last = step
    lo, hi = 0.0, delta
    for iteration in range(picard + 1, max_iter + 1):
        c = t / (1.0 + t * delta)
        u = 1.0 / (1.0 + c * q)
        b = (k - q.size + float(np.sum(u))) / k
        gap = delta * b - (1.0 - b) / t
        if gap > 0:
            hi = delta
        else:
            lo = delta
        slope = 1.0 - float(np.sum((c * q * u) ** 2)) / k
        step = gap / slope if slope > 0 else math.inf
        if abs(step) <= tol * max(delta, 1.0):
            return delta - step, iteration
        delta = delta - step if lo < delta - step < hi else 0.5 * (lo + hi)
    raise ConvergenceError("no convergence", last_iterate=delta,
                           residual=abs(fixed_point_map(q, k, t, delta) - delta))


def exponential_spectrum(m: int, rho: float = 0.4) -> CorrelationSpectrum:
    offsets = np.arange(m, dtype=float)
    return CorrelationSpectrum.from_matrix(rho ** ((offsets[:, None] - offsets[None, :]) ** 2))


def random_spectrum(rng) -> tuple[CorrelationSpectrum, int]:
    m = int(rng.integers(4, 301))
    k = int(rng.integers(2, 101))
    q = rng.uniform(0.0, 2.0, m)
    q[0] = max(q[0], 0.1)  # keep the trace away from zero
    return CorrelationSpectrum.from_diagonal(q), k


class TestSolveDelta:
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("m", [40, 100])
    def test_closed_form_identity_spectrum(self, m, t):
        spec = CorrelationSpectrum.from_diagonal(np.ones(m))
        (delta,), _ = solve_delta_grid(spec, m, [t])
        assert delta == pytest.approx(closed_form_delta(t), abs=1e-10)

    def test_small_t_collapses_to_normalized_trace(self):
        rng = np.random.default_rng(0)
        q = rng.uniform(0.0, 1.0, 50)
        spec = CorrelationSpectrum.from_diagonal(q)
        (delta,), (iters,) = solve_delta_grid(spec, 20, [1e-12])
        assert delta == pytest.approx(q.sum() / 20, rel=1e-9)
        assert iters <= 2

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(1)
        q = rng.uniform(0.0, 1.0, 120)
        spec = CorrelationSpectrum.from_diagonal(q)
        (delta,), _ = solve_delta_grid(spec, 40, [7.0])
        assert delta == pytest.approx(bisection_delta(q, 40, 7.0), abs=1e-10)

    def test_uniqueness_guard_hundred_spectra(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            spec, k = random_spectrum(rng)
            t = float(10.0 ** rng.uniform(-3, 3))
            (delta,), _ = solve_delta_grid(spec, k, [t])
            oracle = bisection_delta(spec.eigenvalues, k, t)
            assert delta == pytest.approx(oracle, abs=1e-11 * max(1.0, oracle))

    def test_residual_bound_holds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec, k = random_spectrum(rng)
            t = float(10.0 ** rng.uniform(-3, 3))
            (delta,), _ = solve_delta_grid(spec, k, [t])
            resid = abs(delta - fixed_point_map(spec.eigenvalues, k, t, delta))
            assert resid <= 1e-12 * max(delta, 1.0)

    def test_monotone_decreasing_in_t(self):
        rng = np.random.default_rng(4)
        q = rng.uniform(0.0, 1.0, 80)
        spec = CorrelationSpectrum.from_diagonal(q)
        ts = np.logspace(-3, 3, 25)
        deltas = [solve_delta_grid(spec, 40, [t])[0][0] for t in ts]
        assert np.all(np.diff(deltas) < 0)

    def test_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec, k = random_spectrum(rng)
            (delta,), _ = solve_delta_grid(spec, k, [float(10.0 ** rng.uniform(-3, 3))])
            assert delta > 0

    def test_iteration_cap_raises_with_last_iterate(self, monkeypatch):
        spec = CorrelationSpectrum.from_diagonal(np.ones(40))
        monkeypatch.setattr(rmt, "DEFAULT_MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as err:
            solve_delta_grid(spec, 40, [1.0])
        assert err.value.last_iterate is not None
        assert err.value.residual is not None

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_t(self, t):
        spec = CorrelationSpectrum.from_diagonal(np.ones(4))
        with pytest.raises(ValueError, match="t must be positive and finite"):
            solve_delta_grid(spec, 4, [t, 1.0])


class TestSquareSystems:
    """M = K, where Picard contracts at a rate near 1 and Newton finishes."""

    SPECTRA = {
        "identity": lambda m: CorrelationSpectrum.from_diagonal(np.ones(m)),
        "exponential": exponential_spectrum,
    }

    @pytest.mark.parametrize("grid", [TINY_GRID, DEFAULT_GRID], ids=["1e-6", "default"])
    @pytest.mark.parametrize("m", [30, 40, 80])
    @pytest.mark.parametrize("psi", sorted(SPECTRA))
    def test_converges_to_the_root(self, psi, m, grid):
        spec = self.SPECTRA[psi](m)
        for lam in grid:
            t = m / lam
            (delta,), (iters,) = solve_delta_grid(spec, m, [t])
            assert iters <= PICARD_STEPS + 30
            oracle = mpmath_delta(spec.eigenvalues, m, t)
            assert delta == pytest.approx(oracle, rel=1e-13, abs=0.0)
            resid = abs(delta - fixed_point_map(spec.eigenvalues, m, t, delta))
            assert resid <= 1e-12 * max(delta, 1.0)

    @pytest.mark.parametrize("grid", [TINY_GRID, DEFAULT_GRID], ids=["1e-6", "default"])
    def test_rank_deficient_psi_with_rank_k(self, grid):
        # rank(Psi) = K makes a tall system behave as a square one
        m, k = 60, 40
        b = np.random.default_rng(13).standard_normal((m, k))
        spec = CorrelationSpectrum.from_matrix(b @ b.T / m)
        for lam in grid:
            (delta,), (iters,) = solve_delta_grid(spec, k, [k / lam])
            assert iters <= PICARD_STEPS + 30
            assert delta == pytest.approx(mpmath_delta(spec.eigenvalues, k, k / lam), rel=1e-12)

    def test_newton_phase_keeps_the_residual_contract(self, monkeypatch):
        spec = exponential_spectrum(60)
        t = 60 / 1e-6
        for tol in (1e-12, 1e-9, 1e-6):
            monkeypatch.setattr(rmt, "DEFAULT_TOL", tol)
            (delta,), (iters,) = solve_delta_grid(spec, 60, [t])
            # Picard cannot finish this t in PICARD_STEPS steps; it leaves early
            assert plain_picard(spec.eigenvalues, 60, t, tol) is None
            assert iters < PICARD_STEPS
            resid = abs(delta - fixed_point_map(spec.eigenvalues, 60, t, delta))
            assert resid <= tol * max(delta, 1.0)

    def test_max_iter_bounds_both_phases(self, monkeypatch):
        spec = CorrelationSpectrum.from_diagonal(np.ones(30))
        t = 30 / 1e-6
        (delta,), (iters,) = solve_delta_grid(spec, 30, [t])
        assert iters < PICARD_STEPS
        monkeypatch.setattr(rmt, "DEFAULT_MAX_ITER", iters)
        assert solve_delta_grid(spec, 30, [t])[0][0] == delta
        monkeypatch.setattr(rmt, "DEFAULT_MAX_ITER", iters - 1)
        with pytest.raises(ConvergenceError) as err:
            solve_delta_grid(spec, 30, [t])
        # the budget runs out in the Newton phase: above the root, and below the
        # iterate that Picard alone reaches in as many steps
        picard_iterate = 1.0  # tr(Psi) / K
        for _ in range(iters - 1):
            picard_iterate = fixed_point_map(spec.eigenvalues, 30, t, picard_iterate)
        assert closed_form_delta(t) < err.value.last_iterate < picard_iterate

    @pytest.mark.parametrize("scale", [2.0 ** 600, 1e200], ids=["2^600", "1e200"])
    def test_newton_finish_scales_with_psi(self, scale):
        # Psi = s I with t / s has the root s delta; Newton's slope squares
        # c q u < 1, which stays finite where (q u)^2 would overflow
        q, ts = np.ones(60), 60 / np.array([1e-6, 2e-6, 1e-3])
        assert plain_picard(q, 60, ts[0]) is None  # the Newton phase runs
        deltas, _ = solve_delta_grid(CorrelationSpectrum.from_diagonal(q), 60, ts)
        scaled, _ = solve_delta_grid(CorrelationSpectrum.from_diagonal(scale * q), 60, ts / scale)
        assert scaled == pytest.approx(scale * deltas, rel=1e-13, abs=0.0)

    def test_picard_result_is_returned_unchanged(self):
        rng = np.random.default_rng(14)
        q = rng.uniform(0.0, 2.0, 80)
        spec = CorrelationSpectrum.from_diagonal(q)
        for lam in (1e-6, *DEFAULT_GRID, 1.0):
            t = 40 / lam
            (delta,), (iters,) = solve_delta_grid(spec, 40, [t])
            assert (delta, iters) == per_penalty_delta(q, 40, t)
            assert iters <= PICARD_STEPS


class TestWideRangeSpectra:
    """Psi = diag(logspace(-a, a, M)): where about K eigenvalues dominate, Newton's
    slope at the root is tiny and the rounding of the gap makes steps that do not
    descend; the solve must stop on them rather than cycle through its budget."""

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, TINY_GRID, (0.1, 0.2, 0.3, 0.4)],
                             ids=["1e-3", "1e-6", "0.1"])
    @pytest.mark.parametrize("share", [4, 2, 1], ids=["K=M/4", "K=M/2", "K=M"])
    @pytest.mark.parametrize("m", [40, 80, 160])
    @pytest.mark.parametrize("a", [10, 50, 150, 300])
    def test_keeps_the_residual_contract(self, a, m, share, grid):
        q, k = np.logspace(-a, a, m), m // share
        ts = k / np.asarray(grid)
        deltas, _ = solve_delta_grid(CorrelationSpectrum.from_diagonal(q), k, ts)
        for t, delta in zip(ts, deltas.tolist()):
            assert abs(delta - fixed_point_map(q, k, t, delta)) <= 1e-12 * max(delta, 1.0)

    def test_stops_beside_the_60_digit_root(self):
        # 40 eigenvalues have c q > 1, so Newton's slope at the root is about 3.5e-5 and
        # the rounding of g makes steps above the stop bound; the solve still ends
        # early, and g = d - F(d) changes sign within 1e-10 relative of each root
        q, k = np.logspace(-300, 300, 80), 40
        ts = k / np.asarray(DEFAULT_GRID)
        deltas, steps = solve_delta_grid(CorrelationSpectrum.from_diagonal(q), k, ts)
        assert steps.max() < 2 * PICARD_STEPS
        with mpmath.workdps(60):
            qs = [mpmath.mpf(float(v)) for v in q]

            def gap(t, d):
                c = mpmath.mpf(t) / (1 + mpmath.mpf(t) * d)
                return d - mpmath.fsum(v / (1 + c * v) for v in qs) / k

            for t, delta in zip(ts, deltas.tolist()):
                assert gap(t, mpmath.mpf(delta * (1 - 1e-10))) < 0 < \
                    gap(t, mpmath.mpf(delta * (1 + 1e-10)))


# (kind, parameter): uniform(0, 1)^2 from a seed, logspace(-a, a), or 10^e times I
CONTRACT_SPECTRA = st.one_of(
    st.tuples(st.just("uniform2"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("logspace"), st.floats(0.0, 150.0)),
    st.tuples(st.just("scaled"), st.floats(-150.0, 150.0)),
)


def contract_spectrum(kind: str, parameter: float, m: int) -> np.ndarray:
    if kind == "uniform2":
        return np.random.default_rng(parameter).uniform(size=m) ** 2
    if kind == "logspace":
        return np.logspace(-parameter, parameter, m)
    return np.full(m, 10.0 ** parameter)


class TestFixedPointContract:
    """Over diagonal spectra, shapes and grids: a root, or ConvergenceError, and no warning."""

    @settings(max_examples=100, deadline=None)
    @given(spectrum=CONTRACT_SPECTRA, m=st.integers(2, 120), aspect=st.floats(0.25, 2.0),
           exponents=st.lists(st.floats(-8.0, 3.0), min_size=4, max_size=4))
    # square, every c q above 2^53: Newton's slope rounds to 0 (a division by zero)
    @example(spectrum=("scaled", 30.0), m=60, aspect=1.0, exponents=np.log10(DEFAULT_GRID).tolist())
    @example(spectrum=("scaled", 30.0), m=60, aspect=1.0,
             exponents=[-4.0, math.log10(1.0000001e-4), -4.0, -4.0])
    @example(spectrum=("scaled", 40.0), m=22, aspect=1.0, exponents=np.log10(DEFAULT_GRID).tolist())
    # wide: c q of 1e32 above 2^53 at the root; a delta at lambda = 3e-3 48% off its own
    # fixed point
    @example(spectrum=("logspace", 32.0), m=2, aspect=0.5, exponents=[0.0, 0.0, 0.0, 0.0])
    @example(spectrum=("scaled", 101.0), m=98, aspect=190 / 98,
             exponents=np.log10(DEFAULT_GRID).tolist())
    def test_returns_a_root_or_raises(self, spectrum, m, aspect, exponents):
        q, k = contract_spectrum(*spectrum, m), max(1, round(aspect * m))
        ts = k / 10.0 ** np.array(exponents)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                deltas, _ = solve_delta_grid(CorrelationSpectrum.from_diagonal(q), k, ts)
            except ConvergenceError:
                return
        for t, delta in zip(ts, deltas.tolist()):
            assert 0.0 < delta <= float(q.sum()) / k
            assert abs(fixed_point_map(q, k, t, delta) - delta) <= 1e-12 * max(delta, 1.0)

    # one eigenvalue of 1e298 beside 119 of 1e-175, lambda = 1e-8: Newton's c q passes
    # 1.8e308, a case the spectrum families above do not reach
    @pytest.mark.parametrize("k", [180, 240])
    def test_an_overflowing_newton_product_raises_without_a_warning(self, k):
        q = np.array([1e298] + [1e-175] * 119)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="stopped short of a positive root"):
                solve_delta_grid(CorrelationSpectrum.from_diagonal(q), k, [k / 1e-8])


def grid_problem(m: int, shape: str, zeros: float, seed: int) -> tuple[np.ndarray, int]:
    """Eigenvalues and K for a square, identity, tall or wide system; ``zeros`` is
    the share of eigenvalues set to zero (a rank-deficient Psi)."""
    rng = np.random.default_rng(seed)
    q = np.ones(m) if shape == "identity" else rng.uniform(0.0, 2.0, m)
    q[rng.random(m) < zeros] = 0.0
    q[0] = max(q[0], 0.1)
    k = {"tall": int(rng.integers(1, m)), "wide": int(rng.integers(m + 1, 3 * m))}.get(shape, m)
    return q, k


GRID_PROBLEMS = dict(
    m=st.integers(5, 120),
    shape=st.sampled_from(["square", "identity", "tall", "wide"]),
    zeros=st.sampled_from([0.0, 0.5, 0.9]),
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.floats(-7.0, 3.0), min_size=1, max_size=8),
)


class TestGridSolver:
    """solve_delta_grid against the same iteration run one penalty at a time."""

    @settings(max_examples=150, deadline=None)
    @given(**GRID_PROBLEMS)
    @example(m=30, shape="identity", zeros=0.0, seed=0, exponents=[-7.0, -6.0, -3.0, 0.0, 3.0])
    @example(m=60, shape="square", zeros=0.5, seed=1, exponents=[-7.0, -6.5, -6.0, -5.5])
    def test_bit_identical_to_per_penalty_solves(self, m, shape, zeros, seed, exponents):
        q, k = grid_problem(m, shape, zeros, seed)
        ts = k / 10.0 ** np.array(exponents)
        deltas, steps = solve_delta_grid(CorrelationSpectrum.from_diagonal(q), k, ts)
        assert [(d, n) for d, n in zip(deltas.tolist(), steps.tolist())] == \
            [per_penalty_delta(q, k, t) for t in ts]

    @settings(max_examples=150, deadline=None)
    @given(**GRID_PROBLEMS, tol=st.sampled_from([1e-12, 1e-9, 1e-6]))
    @example(m=60, shape="square", zeros=0.0, seed=2, exponents=[-3.0, -2.0, -1.0, 0.0],
             tol=1e-12)
    def test_picard_rows_keep_the_bits_of_plain_picard(self, m, shape, zeros, seed,
                                                       exponents, tol):
        # the early exit only takes t that plain Picard cannot finish in
        # PICARD_STEPS steps; every t it can finish keeps its iterate and step
        q, k = grid_problem(m, shape, zeros, seed)
        ts = k / 10.0 ** np.array(exponents)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rmt, "DEFAULT_TOL", tol)
            deltas, steps = solve_delta_grid(CorrelationSpectrum.from_diagonal(q), k, ts)
        for t, delta, n in zip(ts, deltas.tolist(), steps.tolist()):
            picard = plain_picard(q, k, t, tol)
            if picard is not None:
                assert (delta, n) == picard

    @settings(max_examples=100, deadline=None)
    @given(**GRID_PROBLEMS, max_iter=st.integers(1, PICARD_STEPS + 8))
    @example(m=30, shape="identity", zeros=0.0, seed=0, exponents=[-3.0, -7.0, -6.0],
             max_iter=PICARD_STEPS + 1)
    @example(m=30, shape="identity", zeros=0.0, seed=0, exponents=[-3.0, -7.0, -6.0],
             max_iter=20)  # 1e-7 and 1e-6 run out in the Newton phase they enter at step 8
    def test_same_convergence_error_under_a_small_budget(self, m, shape, zeros, seed,
                                                          exponents, max_iter):
        q, k = grid_problem(m, shape, zeros, seed)
        spec = CorrelationSpectrum.from_diagonal(q)
        ts = k / 10.0 ** np.array(exponents)
        failed = []
        for t in ts:
            try:
                per_penalty_delta(q, k, t, max_iter=max_iter)
            except ConvergenceError as err:
                failed.append((t, err))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rmt, "DEFAULT_MAX_ITER", max_iter)
            if not failed:
                solve_delta_grid(spec, k, ts)
                return
            with pytest.raises(ConvergenceError) as err:
                solve_delta_grid(spec, k, ts)
        t, expected = failed[0]
        assert (err.value.last_iterate, err.value.residual) == \
            (expected.last_iterate, expected.residual)
        assert f"lambda={k / t:g}, t={t:g}," in str(err.value)


def catalog_blocks(name: str, seed: int):
    """(spectrum, K, grid) of every block a sweep or theorem check of catalog
    entry ``name`` runs at master seed ``seed``, each spectrum built as the runs build it."""
    definition = scenario_catalog(name, seed=seed)
    for m, k in {definition.dims, *definition.dims_list}:
        spectrum = _correlation_for(definition, m, seed)
        for grid in {definition.lambda_grid, *definition.lambda_grids}:
            yield spectrum, k, grid


class TestCatalogStaysInPicard:
    """No pinned catalog output reaches the Newton phase: every penalty of every
    catalog block finishes in plain Picard, with its bits and step count."""

    @staticmethod
    def assert_plain_picard(name: str, seed: int) -> None:
        for spectrum, k, grid in catalog_blocks(name, seed):
            ts = k / np.asarray(grid)
            deltas, steps = solve_delta_grid(spectrum, k, ts)
            for t, delta, step in zip(ts, deltas, steps):
                assert plain_picard(spectrum.eigenvalues, k, t) == (delta, step)

    def test_scenario_a_at_every_reference_seed(self):
        for seed in range(200):
            self.assert_plain_picard("a", seed)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n != "a"])
    def test_other_catalog_blocks(self, name, seed):
        self.assert_plain_picard(name, seed)


class TestTraceFunctional:
    def test_identity_spectrum_closed_form(self):
        m = 64
        spec = CorrelationSpectrum.from_diagonal(np.ones(m))
        delta = closed_form_delta(1.0)
        expected = m / (1.0 + 1.0 / (1.0 + delta))
        (solved,), _ = solve_delta_grid(spec, m, [1.0])
        trace = m * fixed_point_map(spec.eigenvalues, m, 1.0, solved)
        assert trace == pytest.approx(expected, rel=1e-12)
        assert trace == pytest.approx(m * solved, rel=1e-9)
        assert expected == pytest.approx(m * delta, rel=1e-9)

    def test_trace_identity_random_spectra(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec, k = random_spectrum(rng)
            t = float(10.0 ** rng.uniform(-3, 3))
            (delta,), _ = solve_delta_grid(spec, k, [t])
            trace = k * fixed_point_map(spec.eigenvalues, k, t, delta)
            assert trace == pytest.approx(k * delta, rel=1e-9)


class TestCoefficients:
    def test_identity_spectrum_values(self):
        k = 40
        spec = CorrelationSpectrum.from_diagonal(np.ones(k))
        (xi1, xi2), = coefficients_grid(spec, k, [float(k)])[0]  # t = 1
        assert xi1 == pytest.approx(k * 0.381966, abs=k * 1e-6)
        assert xi2 == pytest.approx(0.618034, abs=1e-6)

    def test_large_lambda_limits(self):
        rng = np.random.default_rng(8)
        q = rng.uniform(0.0, 1.0, 90)
        spec = CorrelationSpectrum.from_diagonal(q)
        (xi1, xi2), = coefficients_grid(spec, 30, [1e12])[0]
        assert xi1 == pytest.approx(q.sum(), rel=1e-9)
        assert xi2 == pytest.approx(3.0, rel=1e-9)

    def test_xi2_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            spec, k = random_spectrum(rng)
            lam = float(10.0 ** rng.uniform(-3, 3))
            (_, xi2), = coefficients_grid(spec, k, [lam])[0]
            assert 0.0 < xi2 <= spec.dim / k + 1e-12

    def test_records_fixed_point_iterations(self):
        spec = CorrelationSpectrum.from_diagonal(np.ones(40))
        _, (iters,) = coefficients_grid(spec, 40, [40.0])
        assert iters >= 1

    def test_rejects_nonpositive_lambda(self):
        spec = CorrelationSpectrum.from_diagonal(np.ones(4))
        with pytest.raises(ValueError):
            coefficients_grid(spec, 4, [0.0])
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda must be positive and finite"):
                coefficients_grid(spec, 4, [1.0, lam])

    def test_rejects_a_penalty_whose_t_overflows(self):
        # 5e-324 is positive and finite, but K / 5e-324 is inf; the error names
        # the penalty, not the t the caller never gave, and raises no warning
        spec = CorrelationSpectrum.from_diagonal(np.ones(4))
        with pytest.raises(ValueError, match="lambda 5e-324 is too small"):
            coefficients_grid(spec, 4, [5e-324, 1e-3])

    # t = K / lambda is finite, but t tr(Psi) / K, the fixed point's first t delta,
    # overflows (square, 4e-307), or t tr and K (1 + t delta) do at the root
    # (tall, 6.7e-307); each is rejected by name, with no warning
    @pytest.mark.parametrize("q, k, lam", [((100.0, 100.0), 2, 4e-307),
                                           ((1.0,) * 100, 2, 6.7e-307)], ids=["start", "xi2"])
    def test_rejects_a_penalty_whose_fixed_point_overflows(self, q, k, lam):
        spec = CorrelationSpectrum.from_diagonal(q)
        with pytest.raises(ValueError, match=f"lambda {lam} is too small"):
            coefficients_grid(spec, k, [lam, 1e-3])

    @pytest.mark.parametrize("lam", [2e-306, 1e-300])
    def test_keeps_tiny_penalties_that_do_not_overflow(self, lam):
        xi, _ = coefficients_grid(CorrelationSpectrum.from_diagonal([100.0, 100.0]), 2, [lam, 1e-3])
        assert np.isfinite(xi).all()


class TestAlpha:
    def test_zero_variances(self):
        spec = CorrelationSpectrum.from_diagonal(np.ones(8))
        xi, _ = coefficients_grid(spec, 8, [1.0])
        assert alpha(xi, 0.0, 0.0).tolist() == [0.0]

    def test_large_lambda_limit_value(self):
        rng = np.random.default_rng(10)
        q = rng.uniform(0.0, 1.0, 60)
        spec = CorrelationSpectrum.from_diagonal(q)
        xi, _ = coefficients_grid(spec, 20, [1e12])
        assert alpha(xi, 2.0, 3.0)[0] == pytest.approx(q.sum() * 2.0 + 3.0 * 3.0, rel=1e-9)

    def test_linear_in_variances(self):
        spec = CorrelationSpectrum.from_diagonal(np.linspace(0.1, 1.0, 24))
        xi, _ = coefficients_grid(spec, 12, [0.37])
        (base,) = alpha(xi, 1.3, 0.7)
        assert alpha(xi, 2 * 1.3, 2 * 0.7)[0] == pytest.approx(2 * base, rel=1e-15)

    def test_rejects_negative_variance(self):
        spec = CorrelationSpectrum.from_diagonal(np.ones(4))
        xi, _ = coefficients_grid(spec, 4, [1.0])
        with pytest.raises(ValueError):
            alpha(xi, -1.0, 0.0)

    def test_rows_equal_the_scalar_prediction_bit_for_bit(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            spec, k = random_spectrum(rng)
            xi, _ = coefficients_grid(spec, k, 10.0 ** rng.uniform(-7, 3, 6))
            sx, sn = (float(v) for v in rng.uniform(0.0, 5.0, 2))
            assert alpha(xi, sx, sn).tolist() == [xi1 * sx + xi2 * sn for xi1, xi2 in xi.tolist()]


class TestCorrelationSpectrum:
    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DefinitenessError):
            CorrelationSpectrum.from_diagonal([1.0, -0.5])

    def test_rejects_zero_trace(self):
        with pytest.raises(DefinitenessError):
            CorrelationSpectrum.from_diagonal([0.0, 0.0, 0.0])

    def test_from_matrix_floors_roundoff(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((10, 4))
        psi = b @ b.T  # rank 4, PSD, eigensolver round-off goes slightly negative
        spec = CorrelationSpectrum.from_matrix(psi)
        assert np.all(spec.eigenvalues >= 0)
        assert np.allclose(spec.matrix(), psi, atol=1e-10 * np.max(np.abs(psi)))

    def test_from_matrix_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            CorrelationSpectrum.from_matrix(np.diag([1.0, -0.2]))

    def test_sqrt_apply_diagonal_matches_dense(self):
        rng = np.random.default_rng(12)
        q = rng.uniform(0.1, 2.0, 9)
        diag_spec = CorrelationSpectrum.from_diagonal(q)
        dense_spec = CorrelationSpectrum.from_matrix(np.diag(q))
        x = rng.standard_normal((9, 5))
        assert np.allclose(diag_spec.sqrt_apply(x), dense_spec.sqrt_apply(x), atol=1e-10)

    def test_sqrt_apply_diagonal_bits(self):
        rng = np.random.default_rng(13)
        q = rng.uniform(0.1, 2.0, 80)
        spec = CorrelationSpectrum.from_diagonal(q)
        for _ in range(2):  # the second call reads the cached square roots
            x = rng.standard_normal((80, 40))
            assert np.array_equal(spec.sqrt_apply(x), np.sqrt(q)[:, None] * x)

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(Exception):
            CorrelationSpectrum(eigenvalues=np.ones(2), basis=np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestSymEig:
    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        assert np.allclose(w, 1.0)
        # eigenvectors form a signed permutation of the identity
        assert np.allclose(np.abs(v) @ np.abs(v.T), np.eye(3), atol=1e-12)

    def test_two_by_two_analytic(self):
        w, _ = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        assert w == pytest.approx([3.0, 1.0], abs=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((8, 8))
        a = a + a.T
        w, v = sym_eig(a)
        rebuilt = v @ np.diag(w) @ v.T
        assert np.max(np.abs(a - rebuilt)) <= 1e-8 * np.max(np.abs(a))

    def test_descending_order(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 12))
        a = a + a.T
        w, _ = sym_eig(a)
        assert np.all(np.diff(w) <= 0)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            sym_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionError):
            sym_eig([[1.0, 2.0], [0.5, 1.0]])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=32), st.integers(min_value=0, max_value=10_000))
    def test_orthonormality_and_trace_property(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = a + a.T
        w, v = sym_eig(a)
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10
        rebuilt = v @ np.diag(w) @ v.T
        scale = max(np.max(np.abs(a)), 1e-30)
        assert np.max(np.abs(a - rebuilt)) <= 1e-8 * scale
        assert abs(w.sum() - np.trace(a)) <= 1e-9 * scale * n


@pytest.mark.parametrize("call, error, message", [
    (lambda: CorrelationSpectrum(eigenvalues=np.array([])), DimensionError,
     "eigenvalues must be a nonempty vector"),
    (lambda: CorrelationSpectrum.from_diagonal([1.0, math.inf]), DimensionError,
     "eigenvalues contain non-finite entries"),
    (lambda: CorrelationSpectrum(eigenvalues=np.ones(2), basis=np.eye(3)), DimensionError,
     "basis shape (3, 3) does not match dim 2"),
    (lambda: CorrelationSpectrum.from_matrix(np.zeros((3, 3))), DefinitenessError,
     "correlation matrix has no positive eigenvalue"),
    (lambda: solve_delta_grid(CorrelationSpectrum.from_diagonal(np.ones(3)), 0, [1.0]),
     ValueError, "K must be at least 1, got 0"),
    (lambda: sym_eig(np.ones(3)), DimensionError, "A must be two-dimensional"),
    (lambda: sym_eig([[1.0, np.nan], [np.nan, 1.0]]), DimensionError,
     "A contains non-finite entries"),
], ids=["empty", "non-finite", "basis shape", "zero matrix", "K", "ndim", "non-finite matrix"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
