import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from ridgesnr import (
    CorrelationSpec,
    CorrelationSpectrum,
    DefinitenessError,
    DimensionError,
    DistributionSpec,
    EstimatorPlan,
    LinearModel,
    SnrEstimate,
    build_correlation,
    coefficients_grid,
    derive_rng,
    estimate_snr,
    ml_baseline,
    nnls_2var,
    ridge_costs,
    ridge_solve,
    sample_truth,
    synthesize,
)
from ridgesnr.estimator import COST_BLOCK, LS_EPSILON


def identity_model(y: np.ndarray) -> LinearModel:
    k = y.size
    eye = np.eye(k)
    spec = CorrelationSpectrum.from_diagonal(np.ones(k))
    return LinearModel(design=eye, raw_design=eye, spectrum=spec, y=y)


def random_model(seed: int, m: int = 12, k: int = 6) -> LinearModel:
    rng = np.random.default_rng(seed)
    spec = CorrelationSpectrum.from_diagonal(rng.uniform(0.2, 1.5, m))
    wbar = rng.standard_normal((m, k))
    design = spec.sqrt_apply(wbar)
    y = design @ rng.standard_normal(k) + 0.3 * rng.standard_normal(m)
    return LinearModel(design=design, raw_design=wbar, spectrum=spec, y=y)


def ridge_objective(model: LinearModel, lam: float, x: np.ndarray) -> float:
    return float(np.sum((model.y - model.design @ x) ** 2) + lam * float(x @ x))


def gradient_descent_oracle(model: LinearModel, lam: float) -> np.ndarray:
    """Minimize the ridge objective by plain gradient descent to a tight gradient norm."""
    x = np.zeros(model.k)
    gram = model.design.T @ model.design
    rhs = model.design.T @ model.y
    lipschitz = np.linalg.eigvalsh(gram).max() + lam
    step = 1.0 / lipschitz
    for _ in range(200_000):
        grad = 2.0 * (gram @ x + lam * x - rhs)
        if np.linalg.norm(grad) < 1e-10:
            break
        x = x - 0.5 * step * grad
    return x


def ratio_bias_terms(sigma_x2_hat, sigma_n2_hat, sigma_x2: float, sigma_n2: float):
    """Relative biases of the two variance estimates, and the ratio's second-order term J.

    Write x = sigma_x2_hat, n = sigma_n2_hat, with means xb, nb and deviations
    dx, dn. To second order, x/n ~ (xb/nb) (1 + dx/xb - dn/nb + dn^2/nb^2
    - dx dn/(xb nb)), so E[x/n] ~ (xb/nb) (1 + J) with
    J = Var(n)/nb^2 - Cov(x, n)/(xb nb). For unbiased variance estimates the
    mean normalized SNR error is therefore about J, not 0.
    Returns (xb/sigma_x2 - 1, nb/sigma_n2 - 1, J) from sample moments (ddof=1).
    """
    x_bar = float(np.mean(sigma_x2_hat))
    n_bar = float(np.mean(sigma_n2_hat))
    cov = np.cov(sigma_x2_hat, sigma_n2_hat, ddof=1)
    jensen = float(cov[1, 1] / n_bar ** 2 - cov[0, 1] / (x_bar * n_bar))
    return x_bar / sigma_x2 - 1.0, n_bar / sigma_n2 - 1.0, jensen


def nnls_grid_oracle(xi: np.ndarray, phi: np.ndarray) -> float:
    """Two-stage brute-force grid search over the nonnegative quadrant.

    Coarse pass over [0, hi]^2, then a refined pass around the coarse argmin;
    returns the best objective found.
    """
    h = xi.T @ xi
    g = xi.T @ phi
    const = 0.5 * float(phi @ phi)

    def best_on(axis0, axis1):
        s0, s1 = np.meshgrid(axis0, axis1, indexing="ij")
        obj = (0.5 * (h[0, 0] * s0 ** 2 + 2 * h[0, 1] * s0 * s1 + h[1, 1] * s1 ** 2)
               - g[0] * s0 - g[1] * s1 + const)
        flat = np.argmin(obj)
        i, j = np.unravel_index(flat, obj.shape)
        return float(obj[i, j]), float(axis0[i]), float(axis1[j])

    unconstrained, *_ = np.linalg.lstsq(xi, phi, rcond=None)
    hi = 2.0 * max(float(np.linalg.norm(unconstrained)), 1.0)
    coarse = np.linspace(0.0, hi, 201)
    obj, c0, c1 = best_on(coarse, coarse)
    step = coarse[1] - coarse[0]
    fine0 = np.linspace(max(0.0, c0 - step), c0 + step, 201)
    fine1 = np.linspace(max(0.0, c1 - step), c1 + step, 201)
    obj_fine, *_ = best_on(fine0, fine1)
    return min(obj, obj_fine)


def objective(xi, phi, sigma):
    return 0.5 * float(np.sum((phi - xi @ sigma) ** 2))


class TestRidgeSolve:
    def test_identity_design_scalar_shrinkage(self):
        y = np.array([1.0, -2.0, 0.5, 4.0])
        for lam in (0.1, 1.0, 7.0):
            sol = ridge_solve(identity_model(y), lam)
            assert np.allclose(sol.x_hat, y / (1.0 + lam), atol=1e-12)

    def test_huge_penalty_kills_solution(self):
        model = random_model(0)
        sol = ridge_solve(model, 1e12)
        assert np.linalg.norm(sol.x_hat) <= 1e-9 * np.linalg.norm(model.wty)
        assert sol.phi == pytest.approx(float(model.y @ model.y) / model.k, rel=1e-6)

    def test_matches_gradient_descent_oracle(self):
        model = random_model(1)
        lam = 0.8
        sol = ridge_solve(model, lam)
        oracle = gradient_descent_oracle(model, lam)
        assert np.allclose(sol.x_hat, oracle, atol=1e-6)
        assert sol.phi == pytest.approx(ridge_objective(model, lam, sol.x_hat) / model.k, rel=1e-12)

    def test_phi_nondecreasing_in_lambda(self):
        model = random_model(2)
        lams = np.logspace(-4, 4, 30)
        phis = [ridge_solve(model, lam).phi for lam in lams]
        assert np.all(np.diff(phis) >= -1e-12)

    def test_phi_nonnegative(self):
        model = random_model(3)
        assert ridge_solve(model, 1e-8).phi >= 0.0

    def test_first_order_optimality(self):
        model = random_model(4)
        lam = 0.5
        sol = ridge_solve(model, lam)
        base = ridge_objective(model, lam, sol.x_hat)
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = rng.standard_normal(model.k)
            p /= np.linalg.norm(p)
            assert ridge_objective(model, lam, sol.x_hat + 1e-4 * p) >= base - 1e-12

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_lambda(self, lam):
        with pytest.raises(ValueError, match=f"lambda must be positive and finite, got {lam}"):
            ridge_solve(random_model(6), lam)

    @pytest.mark.parametrize("m, k", [(80, 40), (60, 60), (30, 35)])
    def test_bits_match_dense_normal_equations(self, m, k):
        model = random_model(m + k, m, k)
        for lam in (1e-6, 1e-3, 4e-3, 1.0, 100.0):
            factor = sla.cho_factor(model.gram + lam * np.eye(k), lower=True)
            x_hat = sla.cho_solve(factor, model.wty)
            resid = model.y - model.design @ x_hat
            phi = (float(resid @ resid) + lam * float(x_hat @ x_hat)) / k
            solution = ridge_solve(model, lam)
            assert np.array_equal(solution.x_hat, x_hat)
            assert np.array_equal(solution.residual, resid)
            assert solution.phi == phi

    def test_leaves_cached_gram_and_wty_unchanged(self):
        model = random_model(11, 80, 40)
        gram, wty = model.gram.copy(), model.wty.copy()
        for lam in np.logspace(-6, 2, 9):
            ridge_solve(model, lam)
        assert np.array_equal(model.gram, gram)
        assert np.array_equal(model.wty, wty)

    @staticmethod
    def twin_column_model() -> LinearModel:
        # two equal columns of norm 1024, entries +-256 so every product is exact:
        # 1024^2 + LS_EPSILON rounds to 1024^2, so W^T W + LS_EPSILON I is singular
        # in floating point and its Cholesky factorization breaks down at column 2
        rng = np.random.default_rng(12)
        column = np.zeros(20)
        column[:16] = 256.0 * rng.choice([-1.0, 1.0], 16)
        w = np.column_stack([column, column, rng.standard_normal(20)])
        spec = CorrelationSpectrum.from_diagonal(np.ones(20))
        return LinearModel(design=w, raw_design=w, spectrum=spec, y=rng.standard_normal(20))

    def test_rejects_a_numerically_singular_normal_matrix(self):
        model = self.twin_column_model()
        with pytest.raises(DefinitenessError, match="not positive definite"):
            ridge_solve(model, LS_EPSILON)
        with pytest.raises(DefinitenessError, match="not positive definite"):
            ml_baseline(model, 1.0)
        assert ridge_solve(model, 1e-6).phi > 0.0

    def test_rejects_a_gram_that_overflows(self):
        rng = np.random.default_rng(13)
        w = 1e160 * rng.standard_normal((20, 10))
        spec = CorrelationSpectrum.from_diagonal(np.ones(20))
        model = LinearModel(design=w, raw_design=w, spectrum=spec, y=np.ones(20))
        with np.errstate(over="ignore"), pytest.raises(DimensionError, match="non-finite"):
            ridge_solve(model, 1.0)

    def test_resolvent_flip_identity(self):
        # W (W^T W + lam I_K)^-1 = (W W^T + lam I_M)^-1 W, for any lam > 0
        rng = np.random.default_rng(7)
        w = rng.standard_normal((9, 5))
        lam = 0.3
        left = w @ np.linalg.inv(w.T @ w + lam * np.eye(5))
        right = np.linalg.inv(w @ w.T + lam * np.eye(9)) @ w
        assert np.allclose(left, right, atol=1e-12)


class TestRidgeCosts:
    LAMBDAS = np.logspace(-3, 2, 20)

    @staticmethod
    def models(m: int, k: int, noise: float, count: int = 5) -> list[LinearModel]:
        rng = np.random.default_rng(m * 1000 + k)
        spec = CorrelationSpectrum.from_diagonal(rng.uniform(0.2, 1.5, m))
        wbar = rng.standard_normal((m, k))
        design = spec.sqrt_apply(wbar)
        return [LinearModel(design=design, raw_design=wbar, spectrum=spec,
                            y=design @ rng.standard_normal(k) + noise * rng.standard_normal(m))
                for _ in range(count)]

    # noise 1e-4 is high SNR, where ||y||^2 - ||U^T y||^2 would cancel
    @pytest.mark.parametrize("noise", [1.0, 1e-4])
    @pytest.mark.parametrize("m, k", [(300, 100), (60, 60), (30, 45)])
    def test_matches_ridge_solve(self, m, k, noise):
        models = self.models(m, k, noise)
        (costs,) = ridge_costs(models[0].design, [model.y for model in models], self.LAMBDAS)
        expected = np.array([[ridge_solve(model, lam).phi for model in models]
                             for lam in self.LAMBDAS])
        assert costs.shape == expected.shape
        np.testing.assert_allclose(costs, expected, rtol=1e-10, atol=0)

    # rank(W) < K: the Gram has zero eigenvalues, so the costs come from the thin
    # SVD, with no sqrt(0) and no warning (pytest turns every warning into an error)
    @pytest.mark.parametrize("rank", [0, 30], ids=["all-zero", "rank-deficient"])
    def test_singular_designs_match_ridge_solve(self, rank):
        # W = Psi^(1/2) Wbar, with 80 - rank zero eigenvalues in Psi
        rng = np.random.default_rng(rank)
        wbar = rng.standard_normal((80, 40))
        design = np.sqrt(np.r_[np.zeros(80 - rank), rng.uniform(0.2, 1.5, rank)])[:, None] * wbar
        spec = CorrelationSpectrum.from_diagonal(np.ones(80))
        models = [LinearModel(design=design, raw_design=wbar, spectrum=spec,
                              y=rng.standard_normal(80)) for _ in range(3)]
        (costs,) = ridge_costs(design, [model.y for model in models], self.LAMBDAS)
        expected = np.array([[ridge_solve(model, lam).phi for model in models]
                             for lam in self.LAMBDAS])
        np.testing.assert_allclose(costs, expected, rtol=1e-10, atol=0)

    @staticmethod
    def conditioned_design(cond: float, m: int = 60, k: int = 20) -> np.ndarray:
        """Q diag(s) V^T with singular values spread geometrically from 1 to 1 / cond."""
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.standard_normal((m, k)))
        v, _ = np.linalg.qr(rng.standard_normal((k, k)))
        return (q * np.geomspace(1.0, 1.0 / cond, k)) @ v.T

    @pytest.mark.parametrize("cond", [1.0, 10.0, 99.0, 101.0, 1e3, 1e6])
    def test_gram_guard_by_condition_number(self, cond, monkeypatch):
        # cond(W) < 100 takes eigh of the Gram and must agree with the thin SVD it
        # replaces to 1e-12; a worse-conditioned design must reach the thin SVD
        svd, svd_calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svd_calls.append(1) or svd(*a, **kw))
        design = self.conditioned_design(cond)
        rng = np.random.default_rng(int(cond))
        spec = CorrelationSpectrum.from_diagonal(np.ones(60))
        models = [LinearModel(design=design, raw_design=design, spectrum=spec,
                              y=design @ rng.standard_normal(20) + 0.1 * rng.standard_normal(60))
                  for _ in range(4)]
        ys = np.array([model.y for model in models]).T
        (costs,) = ridge_costs(design, ys.T, self.LAMBDAS)
        assert bool(svd_calls) == (cond > 100)
        expected = np.array([[ridge_solve(model, lam).phi for model in models]
                             for lam in self.LAMBDAS])
        np.testing.assert_allclose(costs, expected, rtol=1e-10, atol=0)
        u, s, _ = svd(design, full_matrices=False)
        coef = u.T @ ys
        thin_svd = ((self.LAMBDAS[:, None] / (s ** 2 + self.LAMBDAS[:, None])) @ coef ** 2
                    + np.sum((ys - u @ coef) ** 2, axis=0)) / 20
        np.testing.assert_allclose(costs, thin_svd, rtol=1e-12, atol=0)

    def test_observations_are_stacked_in_bounded_blocks(self):
        models = self.models(12, 6, 0.3, count=COST_BLOCK + 3)
        blocks = list(ridge_costs(models[0].design, (model.y for model in models), (0.5, 2.0)))
        assert [block.shape for block in blocks] == [(2, COST_BLOCK), (2, 3)]
        assert blocks[1][1, 2] == pytest.approx(ridge_solve(models[-1], 2.0).phi, rel=1e-10)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_lambda(self, lam):
        model = random_model(6)
        with pytest.raises(ValueError, match="lambda must be positive"):
            next(ridge_costs(model.design, [model.y], (1.0, lam)))

    def test_rejects_non_finite_inputs(self):
        model = random_model(6)
        bad_y = model.y.copy()
        bad_y[0] = np.nan
        with pytest.raises(DimensionError, match="observation"):
            next(ridge_costs(model.design, [model.y, bad_y], (1.0,)))
        bad_w = model.design.copy()
        bad_w[0, 0] = np.inf
        with pytest.raises(DimensionError, match="design"):
            next(ridge_costs(bad_w, [model.y], (1.0,)))
        with pytest.raises(DimensionError, match="rows"):
            next(ridge_costs(model.design, [model.y[:-1]], (1.0,)))
        with pytest.raises(DimensionError, match="rows"):
            next(ridge_costs(model.design, model.y, (1.0,)))


def plan_for(model: LinearModel, lambdas) -> EstimatorPlan:
    return EstimatorPlan(model.spectrum, model.m, model.k, lambdas)


class TestAssembleSystem:
    """The per-penalty system Xi @ sigma ~ costs that a plan pairs with an observation."""

    def test_rejects_duplicate_lambdas(self):
        with pytest.raises(ValueError):
            plan_for(random_model(8), [1e-3, 1e-3])

    def test_rejects_single_lambda(self):
        with pytest.raises(Exception):
            plan_for(random_model(8), [1e-3])

    def test_paper_default_grid_shape(self):
        model = random_model(9, m=80, k=40)
        plan = plan_for(model, [1e-3, 2e-3, 3e-3, 4e-3])
        assert plan.xi.shape == (4, 2)
        assert plan.costs(model).shape == (4,)
        assert np.all(np.isfinite(plan.xi))

    def test_two_lambda_exact_solve_matches_nnls_when_interior(self):
        spec = build_correlation(CorrelationSpec(kind="diag_uniform", dim=80, seed=3))
        sig = DistributionSpec.gaussian(1.0)
        noi = DistributionSpec.gaussian(0.1)
        rng = derive_rng(33, 0)
        truth = sample_truth(sig, noi, 80, 40, rng)
        model = synthesize(spec, truth, rng)
        grid = [1e-3, 2e-3]
        plan = plan_for(model, grid)
        exact = np.linalg.solve(plan.xi, plan.costs(model))
        assert np.all(exact > 0), "seed must give an interior solution for this check"
        estimate = estimate_snr(model, grid)
        assert estimate.sigma_x2_hat == pytest.approx(exact[0], rel=1e-9)
        assert estimate.sigma_n2_hat == pytest.approx(exact[1], rel=1e-9)


class TestEstimatorPlan:
    def test_plan_estimate_equals_estimate_snr_exactly(self):
        spec = build_correlation(CorrelationSpec(kind="exponential", dim=40, rho_hat=0.4))
        sig = DistributionSpec.gaussian(1.0)
        noi = DistributionSpec.gaussian(0.1)
        grid = [1e-2, 2e-2, 3e-2]
        plan = EstimatorPlan(spec, 40, 20, grid)
        for trial in range(5):
            rng = derive_rng(41, trial)
            model = synthesize(spec, sample_truth(sig, noi, 40, 20, rng), rng)
            assert plan.estimate(model) == estimate_snr(model, grid)
            assert np.array_equal(plan.costs(model),
                                  [ridge_solve(model, lam).phi for lam in grid])

    def test_rejects_model_of_another_spectrum_or_shape(self):
        model = random_model(11)
        plan = EstimatorPlan(model.spectrum, model.m, model.k, [0.5, 1.0])
        twin = CorrelationSpectrum.from_diagonal(model.spectrum.eigenvalues.copy())
        other = LinearModel(design=model.design, raw_design=model.raw_design,
                            spectrum=twin, y=model.y)
        with pytest.raises(DimensionError):
            plan.costs(other)
        with pytest.raises(DimensionError):
            plan.estimate(other)
        narrow = LinearModel(design=model.design[:, :4], raw_design=model.raw_design[:, :4],
                             spectrum=model.spectrum, y=model.y)
        with pytest.raises(DimensionError):
            plan.costs(narrow)

    def test_shared_arrays_are_read_only(self):
        model = random_model(12)
        grid = np.array([0.5, 1.0])
        plan = EstimatorPlan(model.spectrum, model.m, model.k, grid)
        assert plan.lambdas is not grid and grid.flags.writeable
        with pytest.raises(ValueError):
            plan.xi[0, 0] = 0.0
        with pytest.raises(ValueError):
            plan.lambdas[0] = 2.0


class TestLinearModel:
    def test_rejects_extreme_aspect_ratio(self):
        rng = np.random.default_rng(20)
        spec = CorrelationSpectrum.from_diagonal(np.ones(300))
        wbar = rng.standard_normal((300, 2))
        with pytest.raises(DimensionError):
            LinearModel(design=wbar, raw_design=wbar, spectrum=spec,
                        y=rng.standard_normal(300))

    def test_rejects_inconsistent_observation(self):
        spec = CorrelationSpectrum.from_diagonal(np.ones(8))
        w = np.ones((8, 4))
        with pytest.raises(DimensionError):
            LinearModel(design=w, raw_design=w, spectrum=spec, y=np.ones(7))


class TestSolveSystem:
    """A plan's inversion of Xi @ sigma ~ costs for the variances."""

    def test_attaches_fit_residual(self):
        model = random_model(21, m=40, k=20)
        plan = plan_for(model, [1e-2, 2e-2, 3e-2])
        estimate = plan.estimate(model)
        sigma = np.array([estimate.sigma_x2_hat, estimate.sigma_n2_hat])
        assert estimate.fit_residual_norm == pytest.approx(
            np.linalg.norm(plan.costs(model) - plan.xi @ sigma))
        assert estimate.fixed_point_iters is plan.fixed_point_iters
        assert plan.fixed_point_iters == tuple(
            int(coefficients_grid(model.spectrum, 40, 20, [lam])[1][0]) for lam in plan.lambdas)


class TestSnrEstimate:
    """The SNR fields derive from the two variances."""

    def test_fields_are_the_variances_and_keyword_only_diagnostics(self):
        assert [(f.name, f.kw_only) for f in fields(SnrEstimate)] == [
            ("sigma_x2_hat", False), ("sigma_n2_hat", False),
            ("fit_residual_norm", True), ("fixed_point_iters", True)]
        for name in ("snr_linear", "snr_db", "degenerate"):
            assert isinstance(getattr(SnrEstimate, name), property)

    def test_four_positional_values_are_rejected(self):
        with pytest.raises(TypeError):
            SnrEstimate(1.0, 0.1, 2.5, (3, 4))

    @pytest.mark.parametrize("sigma_x2, sigma_n2, snr_linear, snr_db, degenerate", [
        (1.0, 0.1, 10.0, 10.0, False),
        (0.0, 0.1, 0.0, -math.inf, True),
        (1.0, 0.0, math.inf, math.inf, True),
        (0.0, 0.0, math.nan, math.nan, True),
    ], ids=["ratio", "zero signal", "zero noise", "both zero"])
    def test_snr_rule(self, sigma_x2, sigma_n2, snr_linear, snr_db, degenerate):
        est = SnrEstimate(sigma_x2, sigma_n2)
        assert est.snr_linear == pytest.approx(snr_linear, nan_ok=True)
        assert est.snr_db == pytest.approx(snr_db, nan_ok=True)
        assert est.degenerate is degenerate

    def test_replaced_variances_move_the_snr(self):
        est = replace(SnrEstimate(1.0, 0.1, fit_residual_norm=0.5), sigma_n2_hat=0.0)
        assert est.snr_linear == math.inf
        assert est.degenerate
        assert est.fit_residual_norm == 0.5


class TestNnls2Var:
    def test_interior_optimum(self):
        sigma, resid = nnls_2var(np.eye(2), [1.0, 2.0])
        assert sigma == pytest.approx([1.0, 2.0], abs=1e-12)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_clamps_negative_component(self):
        sigma, resid = nnls_2var(np.eye(2), [1.0, -1.0])
        assert sigma == pytest.approx([1.0, 0.0], abs=1e-12)
        assert resid == pytest.approx(1.0, abs=1e-12)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            xi = rng.standard_normal((6, 2))
            phi = rng.standard_normal(6)
            sigma, _ = nnls_2var(xi, phi)
            assert objective(xi, phi, sigma) <= nnls_grid_oracle(xi, phi) + 1e-3

    def test_rank_deficient_falls_back(self):
        xi = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        sigma, _ = nnls_2var(xi, [3.0, 3.0, 3.0])
        assert np.all(sigma >= 0)
        assert objective(xi, np.array([3.0, 3.0, 3.0]), sigma) <= 1e-18

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            nnls_2var(np.ones((3, 3)), np.ones(3))
        with pytest.raises(DimensionError):
            nnls_2var(np.ones((1, 2)), np.ones(1))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_objective_dominates_simple_candidates(self, seed):
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((5, 2))
        phi = rng.standard_normal(5)
        sigma, _ = nnls_2var(xi, phi)
        assert np.all(sigma >= 0)
        best = objective(xi, phi, sigma)
        assert best <= objective(xi, phi, np.zeros(2)) + 1e-12
        unconstrained, *_ = np.linalg.lstsq(xi, phi, rcond=None)
        clamped = np.maximum(unconstrained, 0.0)
        assert best <= objective(xi, phi, clamped) + 1e-12


class TestEstimateSnr:
    def test_zero_observation_degenerate(self):
        model = identity_model(np.zeros(8))
        est = estimate_snr(model, [0.5, 1.0])
        assert est.sigma_x2_hat == 0.0
        assert est.sigma_n2_hat == 0.0
        assert est.degenerate
        assert math.isnan(est.snr_linear)

    def test_deterministic(self):
        model = random_model(10, m=40, k=20)
        grid = [1e-2, 2e-2, 3e-2]
        a = estimate_snr(model, grid)
        b = estimate_snr(model, grid)
        assert a.sigma_x2_hat == b.sigma_x2_hat
        assert a.sigma_n2_hat == b.sigma_n2_hat
        assert a.snr_linear == b.snr_linear
        assert a.fixed_point_iters == b.fixed_point_iters

    def test_scale_equivariance(self):
        base = random_model(11, m=60, k=24)
        grid = [1e-3, 3e-3, 9e-3]
        scale = 3.7
        scaled = LinearModel(design=base.design, raw_design=base.raw_design,
                             spectrum=base.spectrum, y=scale * base.y)
        for lam in grid:
            assert ridge_solve(scaled, lam).phi == pytest.approx(
                scale ** 2 * ridge_solve(base, lam).phi, rel=1e-12)
        est = estimate_snr(base, grid)
        est_scaled = estimate_snr(scaled, grid)
        assert est_scaled.sigma_x2_hat == pytest.approx(scale ** 2 * est.sigma_x2_hat, rel=1e-9)
        assert est_scaled.sigma_n2_hat == pytest.approx(scale ** 2 * est.sigma_n2_hat, rel=1e-9)
        assert est_scaled.snr_linear == pytest.approx(est.snr_linear, rel=1e-9)

    @pytest.mark.parametrize("exponent", [300, -300])
    def test_power_of_two_scale_of_y_is_exact(self, exponent):
        # every cost scales by c^2 = 2^(2 exponent) exactly, and so do both variances
        base = random_model(11, m=60, k=24)
        scale = math.ldexp(1.0, exponent)
        scaled = LinearModel(design=base.design, raw_design=base.raw_design,
                             spectrum=base.spectrum, y=scale * base.y)
        grid = [1e-3, 3e-3, 9e-3]
        est, est_scaled = estimate_snr(base, grid), estimate_snr(scaled, grid)
        assert est_scaled.sigma_x2_hat == scale ** 2 * est.sigma_x2_hat
        assert est_scaled.sigma_n2_hat == scale ** 2 * est.sigma_n2_hat
        assert est_scaled.snr_db == est.snr_db

    @pytest.mark.parametrize("scale", [1e100, 1e-100, 1e10, 1e-10])
    def test_any_scale_of_y_keeps_snr_db(self, scale):
        # costs near 1e200 are fitted without overflow
        base = random_model(11, m=60, k=24)
        scaled = LinearModel(design=base.design, raw_design=base.raw_design,
                             spectrum=base.spectrum, y=scale * base.y)
        grid = [1e-3, 3e-3, 9e-3]
        assert estimate_snr(scaled, grid).snr_db == pytest.approx(
            estimate_snr(base, grid).snr_db, rel=0.0, abs=1e-12)

    # permuting the rows of (y, Wbar, Psi) together and the columns of Wbar states the same
    # model in another order, so snr_db moves by rounding only (6e-12 dB at worst over 20
    # seeds of each case); seeds whose estimate is degenerate are left out
    @pytest.mark.parametrize("kind", ["exponential", "bessel", "diag_uniform"])
    @pytest.mark.parametrize("m, k, grid", [(80, 40, (1e-3, 2e-3, 3e-3, 4e-3)),
                                            (31, 30, (0.1, 0.2, 0.3, 0.4)),
                                            (30, 35, (0.1, 0.2, 0.3, 0.4))],
                             ids=["80x40", "31x30", "30x35"])
    def test_permuting_rows_and_columns_keeps_snr_db(self, kind, m, k, grid):
        def model(psi, wbar, y):
            spectrum = CorrelationSpectrum.from_matrix(psi)
            return LinearModel(design=spectrum.sqrt_apply(wbar), raw_design=wbar,
                               spectrum=spectrum, y=y)

        for seed in (1, 2, 7):
            psi = build_correlation(CorrelationSpec(
                kind=kind, dim=m, rho_hat=0.4 if kind == "exponential" else 0.0,
                seed=seed)).matrix()
            rng = np.random.default_rng(seed)
            wbar = rng.standard_normal((m, k))
            y = (model(psi, wbar, np.zeros(m)).design @ rng.standard_normal(k)
                 + 0.3 * rng.standard_normal(m))
            rows, cols = rng.permutation(m), rng.permutation(k)
            est = estimate_snr(model(psi, wbar, y), grid)
            permuted = estimate_snr(model(psi[np.ix_(rows, rows)], wbar[np.ix_(rows, cols)],
                                          y[rows]), grid)
            assert not (est.degenerate or permuted.degenerate)
            assert abs(permuted.snr_db - est.snr_db) <= 1e-9

    def test_pure_noise_monte_carlo(self):
        spec = build_correlation(CorrelationSpec(kind="diag_uniform", dim=120, seed=0))
        sig = DistributionSpec.gaussian(0.0)
        noi = DistributionSpec.gaussian(1.0)
        grid = (1e-3, 2e-3, 3e-3, 4e-3)
        sx, sn = [], []
        for trial in range(200):
            rng = derive_rng(123, 0, 0, trial)
            truth = sample_truth(sig, noi, 120, 40, rng)
            model = synthesize(spec, truth, rng)
            est = estimate_snr(model, grid)
            sx.append(est.sigma_x2_hat)
            sn.append(est.sigma_n2_hat)
        assert np.mean(sx) <= 0.05
        assert np.mean(sn) == pytest.approx(1.0, rel=0.10)

    def test_unbiased_at_ten_db_scenario_a(self):
        # scenario-(a) world at 10 dB. Asserted: the mean of each variance
        # estimate is within 5% of the truth, and the mean normalized SNR
        # error is within 0.05 of the ratio's second-order term J (about
        # +0.05 here; see ratio_bias_terms), which an unbiased pair carries
        spec = build_correlation(CorrelationSpec(kind="diag_uniform", dim=80, seed=0))
        sig = DistributionSpec.gaussian(1.0)
        noi = DistributionSpec.gaussian(0.1)
        grid = (1e-3, 2e-3, 3e-3, 4e-3)
        errors, sx, sn = [], [], []
        for trial in range(500):
            rng = derive_rng(0, 0, 7, trial)
            truth = sample_truth(sig, noi, 80, 40, rng)
            model = synthesize(spec, truth, rng)
            est = estimate_snr(model, grid)
            if not est.degenerate:
                errors.append((est.snr_linear - 10.0) / 10.0)
                sx.append(est.sigma_x2_hat)
                sn.append(est.sigma_n2_hat)
        bias_x, bias_n, jensen = ratio_bias_terms(sx, sn, 1.0, 0.1)
        assert abs(bias_x) <= 0.05
        assert abs(bias_n) <= 0.05
        assert abs(np.mean(errors) - jensen) <= 0.05


class TestMlBaseline:
    def test_noise_only_residual_oracle(self):
        # residual of the LS projection has expectation (M - K) sigma_n^2, so
        # with the plain ML divisor M the estimate concentrates at
        # (M - K)/M * sigma_n^2
        m, k = 200, 40
        sigma_n2 = 0.1
        spec = CorrelationSpectrum.from_diagonal(np.ones(m))
        sig = DistributionSpec.gaussian(0.0)
        noi = DistributionSpec.gaussian(sigma_n2)
        values = []
        for trial in range(200):
            rng = derive_rng(77, 0, 0, trial)
            truth = sample_truth(sig, noi, m, k, rng)
            model = synthesize(spec, truth, rng)
            values.append(ml_baseline(model, 1.0).sigma_n2_hat)
        expected = (m - k) / m * sigma_n2
        assert np.mean(values) == pytest.approx(expected, rel=0.05)
        # the diagnostics are the proposed method's; the baseline leaves them at their defaults
        estimate = ml_baseline(model, 1.0)
        assert (estimate.fit_residual_norm, estimate.fixed_point_iters) == (0.0, ())

    def test_wide_system_collapses(self):
        spec = build_correlation(CorrelationSpec(kind="diag_uniform", dim=30, seed=1))
        sig = DistributionSpec.gaussian(1.0)
        noi = DistributionSpec.gaussian(0.1)
        rng = derive_rng(78, 0)
        truth = sample_truth(sig, noi, 30, 35, rng)
        model = synthesize(spec, truth, rng)
        ml = ml_baseline(model, truth.sigma_x2)
        assert ml.sigma_n2_hat <= 1e-12 * truth.sigma_n2
        assert ml.snr_linear > 1e10  # wildly overestimated

    def test_exact_fit_noise_estimate_is_numerically_zero(self):
        rng = np.random.default_rng(79)
        m, k = 50, 20
        spec = CorrelationSpectrum.from_diagonal(np.ones(m))
        wbar = rng.standard_normal((m, k))
        y = wbar @ rng.standard_normal(k)
        model = LinearModel(design=wbar, raw_design=wbar, spectrum=spec, y=y)
        ml = ml_baseline(model, 1.0)
        assert ml.sigma_n2_hat <= 1e-16
        assert ml.snr_linear > 1e12

    def test_rejects_negative_signal_variance(self):
        with pytest.raises(ValueError):
            ml_baseline(random_model(12), -1.0)


def _model_with(**changes) -> LinearModel:
    """A valid 4x2 model with the given fields replaced."""
    fields = dict(design=np.ones((4, 2)), raw_design=np.ones((4, 2)),
                  spectrum=CorrelationSpectrum.from_diagonal(np.ones(4)), y=np.ones(4))
    return LinearModel(**{**fields, **changes})


@pytest.mark.parametrize("call, message", [
    (lambda: _model_with(spectrum=CorrelationSpectrum.from_diagonal(np.ones(3))),
     "correlation dim 3 != design rows 4"),
    (lambda: _model_with(design=np.ones(4)), "design must be a matrix"),
    (lambda: _model_with(raw_design=np.ones((4, 3))), "raw design shape (4, 3) != design shape (4, 2)"),
    (lambda: _model_with(y=np.array([1.0, np.nan, 1.0, 1.0])), "model contains non-finite entries"),
    (lambda: next(ridge_costs(np.ones(4), [np.ones(4)], [1.0])), "design must be a matrix"),
    (lambda: nnls_2var(np.ones((3, 2)), np.ones(4)), "phi length (4,) does not match Xi rows 3"),
    (lambda: nnls_2var(np.ones((3, 2)), [1.0, np.inf, 1.0]), "phi contains non-finite entries"),
], ids=["spectrum dim", "design ndim", "raw design shape", "non-finite", "ridge_costs ndim",
        "phi length", "non-finite phi"])
def test_input_checks(call, message):
    with pytest.raises(DimensionError, match=re.escape(message)):
        call()
