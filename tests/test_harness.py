import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from ridgesnr import (
    CorrelationSpec,
    DistributionSpec,
    RunConfig,
    ScenarioDefinition,
    alpha,
    coefficients_grid,
    dim_sweep,
    estimator,
    lambda_sensitivity,
    run_scenario,
    sample_truth,
    scenario_catalog,
    verify_theorem,
)
from ridgesnr.exceptions import ConvergenceError, DimensionError, RidgeSnrError
from ridgesnr.harness import (STREAM_FIXED_DESIGN, STREAM_THEOREM_DRAWS, STREAM_TRIALS,
                              _aggregate, _cell, _correlation_for, _draw_trial, derive_rng,
                              estimate_from_files)
from square_requests import reference_estimate, write_square_request


def small_config(tmp_path, parallelism=1, trials=24, dump=True, name="a"):
    return RunConfig(
        scenario=name,
        trials=trials,
        master_seed=5,
        snr_points_db=(0.0, 10.0),
        output_path=str(tmp_path / f"out_p{parallelism}.csv"),
        parallelism=parallelism,
        dump_trials=dump,
    )


class TestDeriveRng:
    def test_streams_are_reproducible_and_distinct(self):
        a1 = derive_rng(9, 0, 1, 2).standard_normal(4)
        a2 = derive_rng(9, 0, 1, 2).standard_normal(4)
        b = derive_rng(9, 0, 1, 3).standard_normal(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


def estimates(*pairs):
    """One SnrEstimate per (sigma_x2, sigma_n2) pair; None (a failed trial) stays None."""
    return [None if pair is None else estimator.SnrEstimate(*pair) for pair in pairs]


class TestAggregate:
    def test_excludes_degenerates_without_nan(self):
        trials = estimates(
            (1.0, 0.1),        # valid, snr 10
            (0.0, 0.2),        # degenerate: zero signal
            (0.5, 0.0),        # degenerate: zero noise
            None,              # failed trial
            (2.0, 0.1),        # valid, snr 20
        )
        row = _aggregate(10.0, "proposed", 8, 4, trials)
        assert row.trials == 5
        assert row.trials_degenerate == 2
        assert row.trials_failed == 1
        assert math.isfinite(row.mean_est_db)
        assert math.isfinite(row.norm_err_var)
        assert row.norm_err_mean == pytest.approx(((10 - 10) / 10 + (20 - 10) / 10) / 2)

    def test_single_valid_trial_flags_variance_undefined(self):
        row = _aggregate(10.0, "proposed", 8, 4, estimates((1.0, 0.1)))
        assert math.isnan(row.norm_err_var)
        assert math.isfinite(row.mean_est_db)

    def test_no_valid_trials(self):
        row = _aggregate(10.0, "proposed", 8, 4, estimates((0.0, 0.0)))
        assert row.trials_degenerate == 1
        assert math.isnan(row.mean_est_db)


class TestRunScenario:
    def test_rows_and_csv(self, tmp_path):
        config = small_config(tmp_path)
        rows = run_scenario(config)
        assert len(rows) == 4  # 2 points x 2 methods
        methods = {r.method for r in rows}
        assert methods == {"proposed", "ml"}
        text = (tmp_path / "out_p1.csv").read_text()
        assert text.startswith("# ridgesnr run")
        assert "snr_true_db,method" in text
        trials_file = tmp_path / "out_p1_trials.csv"
        assert trials_file.exists()

    # 3 trials run inline under 2 workers; 24 split evenly into ranges of 3;
    # 25 leave a short last range
    @pytest.mark.parametrize("trials", [3, 24, 25])
    def test_parallelism_does_not_change_bytes(self, tmp_path, trials):
        run_scenario(small_config(tmp_path, parallelism=1, trials=trials))
        run_scenario(small_config(tmp_path, parallelism=2, trials=trials))
        one = (tmp_path / "out_p1.csv").read_bytes().replace(b"out_p1", b"out")
        two = (tmp_path / "out_p2.csv").read_bytes().replace(b"out_p2", b"out")
        assert one == two
        t1 = (tmp_path / "out_p1_trials.csv").read_bytes()
        t2 = (tmp_path / "out_p2_trials.csv").read_bytes()
        assert t1 == t2

    def test_mean_recomputable_from_trial_dump(self, tmp_path):
        config = small_config(tmp_path)
        rows = run_scenario(config)
        lines = (tmp_path / "out_p1_trials.csv").read_text().splitlines()
        header = lines[2].split(",")
        data = [dict(zip(header, line.split(","))) for line in lines[3:]]
        for row in rows:
            db_values = [
                float(d["snr_db"]) for d in data
                if d["method"] == row.method and float(d["snr_true_db"]) == row.snr_true_db
                and d["degenerate"] == "0"
            ]
            assert np.mean(db_values) == pytest.approx(row.mean_est_db, abs=1e-9)

    def test_trials_one_flags_variance(self, tmp_path):
        config = RunConfig(scenario="a", trials=1, master_seed=1,
                           snr_points_db=(10.0,), parallelism=1)
        rows = run_scenario(config)
        assert all(math.isnan(r.norm_err_var) for r in rows)


class TestFailedTrials:
    def test_trial_errors_are_counted_not_fatal(self, caplog):
        # an aspect ratio outside the supported band makes every trial fail
        # at model validation; the run must survive and report the count
        defn = ScenarioDefinition(
            name="degenerate-dims", description="K/M below the supported band",
            correlation=CorrelationSpec(kind="identity", dim=300),
            signal=DistributionSpec.gaussian(1.0),
            noise=DistributionSpec.gaussian(0.1),
            swept="signal", dims=(300, 2), lambda_grid=(0.1, 0.2),
            snr_points_db=(10.0,),
        )
        config = RunConfig(scenario=defn, trials=3, master_seed=8, parallelism=1)
        with caplog.at_level("WARNING", logger="ridgesnr.harness"):
            rows = run_scenario(config)
        assert all(r.trials_failed == 3 for r in rows)
        assert any("failed" in record.message for record in caplog.records)

    # the proposed method runs per trial as the block plan's estimate step
    @pytest.mark.parametrize("broken, method, intact", [
        ("ridgesnr.harness.ml_baseline", "ml", "proposed"),
        ("ridgesnr.estimator.EstimatorPlan.estimate", "proposed", "ml"),
    ], ids=["ml_baseline-ml-proposed", "estimate_snr-proposed-ml"])
    def test_one_method_failing_leaves_the_other_intact(self, monkeypatch, broken,
                                                        method, intact):
        def fail(*args):
            raise RidgeSnrError(f"{broken} unavailable")

        monkeypatch.setattr(broken, fail)
        config = RunConfig(scenario="a", trials=5, master_seed=8,
                           snr_points_db=(10.0,), parallelism=1)
        rows = {r.method: r for r in run_scenario(config)}
        assert rows[intact].trials_failed == 0
        assert math.isfinite(rows[intact].mean_est_db)
        assert rows[method].trials_failed == rows[method].trials

    def test_overflowing_ridge_cost_fails_proposed_without_a_warning(self):
        # at 3082 dB the signal variance 1.6e307 is finite, but ||x_hat||^2 overflows;
        # the cost reads inf and nnls_2var rejects it, with no RuntimeWarning on the way
        config = RunConfig(scenario="a", trials=2, snr_points_db=(3082.0,), parallelism=1)
        rows = {r.method: r for r in run_scenario(config)}
        assert rows["proposed"].trials_failed == 2
        ml = rows["ml"]  # reads only its solve's residual, so it keeps its value
        assert (ml.trials_failed, ml.trials_degenerate) == (0, 0)
        assert ml.mean_est_db == pytest.approx(210.37824920558688, rel=1e-12)

    def test_failed_trials_are_not_dumped_as_degenerate(self, monkeypatch, tmp_path):
        def fail(*args):
            raise RidgeSnrError("estimate unavailable")

        monkeypatch.setattr("ridgesnr.estimator.EstimatorPlan.estimate", fail)
        rows = run_scenario(small_config(tmp_path, trials=6))
        lines = (tmp_path / "out_p1_trials.csv").read_text().splitlines()
        header = lines[2].split(",")
        data = [dict(zip(header, line.split(","))) for line in lines[3:]]
        for row in rows:
            dumped = [d for d in data if d["method"] == row.method
                      and float(d["snr_true_db"]) == row.snr_true_db]
            assert len(dumped) == row.trials
            assert sum(d["degenerate"] == "1" for d in dumped) == row.trials_degenerate
            failed = [d for d in dumped if math.isnan(float(d["sigma_x2_hat"]))]
            assert len(failed) == row.trials_failed
        assert all(r.trials_failed == 6 for r in rows if r.method == "proposed")

    SQUARE_TINY_LAMBDA = ScenarioDefinition(
        name="square-tiny-lambda", description="M = K at lambda ~ 1e-6",
        correlation=CorrelationSpec(kind="identity", dim=30),
        signal=DistributionSpec.gaussian(1.0),
        noise=DistributionSpec.gaussian(0.1),
        swept="signal", dims=(30, 30), lambda_grid=(1e-6, 2e-6, 3e-6, 4e-6),
        snr_points_db=(10.0,),
    )

    def test_plan_build_failure_fails_proposed_once_per_block(self, monkeypatch, caplog):
        # the block's estimator plan cannot be built when the fixed point fails
        def fail(*args):
            raise ConvergenceError("fixed point did not converge")

        monkeypatch.setattr("ridgesnr.estimator.coefficients_grid", fail)
        config = RunConfig(scenario=self.SQUARE_TINY_LAMBDA, trials=3, master_seed=8,
                           parallelism=1)
        with caplog.at_level("WARNING", logger="ridgesnr.harness"):
            rows = {r.method: r for r in run_scenario(config)}
        assert rows["proposed"].trials_failed == 3
        assert rows["ml"].trials_failed == 0
        assert math.isfinite(rows["ml"].mean_est_db)
        assert len(caplog.records) == 1
        assert "plan" in caplog.records[0].message

    def test_square_system_at_tiny_penalties_builds_its_plan(self, caplog):
        # Picard alone ran out of its 10,000-step budget here; the Newton
        # finish converges, so neither method fails
        config = RunConfig(scenario=self.SQUARE_TINY_LAMBDA, trials=3, master_seed=8,
                           parallelism=1)
        with caplog.at_level("WARNING", logger="ridgesnr.harness"):
            rows = run_scenario(config)
        assert not caplog.records
        for row in rows:
            assert row.trials_failed == 0
            assert math.isfinite(row.mean_est_db)

    def test_zero_columns_fail_every_trial_without_aborting(self):
        # the plan rejects K = 0 as the model does, before the fixed point
        # (which raises a plain ValueError for K < 1) can abort the run
        config = RunConfig(scenario="a", trials=2, master_seed=1, snr_points_db=(10.0,),
                           dims=((16, 0),), parallelism=1)
        assert all(r.trials_failed == 2 for r in dim_sweep(config))

    @pytest.mark.parametrize("dims", [(16, -3), (-16, 8)])
    def test_negative_dims_are_rejected_by_the_config(self, dims):
        with pytest.raises(ValueError, match=f"dims {dims[0]}x{dims[1]} has a negative"):
            RunConfig(scenario="a", trials=2, dims=((16, 8), dims))

    def test_invalid_grid_still_aborts_the_run(self):
        config = RunConfig(scenario="a", trials=2, master_seed=8, snr_points_db=(10.0,),
                           lambda_grid=(1e-3, -1e-3), parallelism=1)
        with pytest.raises(ValueError, match="positive"):
            run_scenario(config)


class TestTrialInvariantWork:
    @staticmethod
    def count_coefficient_calls(monkeypatch) -> list:
        """Record (m, k, grid) of every grid solve the estimator makes."""
        calls = []
        original = estimator.coefficients_grid

        def counting(spectrum, m, k, lambdas, *args, **kwargs):
            calls.append((m, k, tuple(lambdas)))
            return original(spectrum, m, k, lambdas, *args, **kwargs)

        monkeypatch.setattr(estimator, "coefficients_grid", counting)
        return calls

    def test_one_plan_per_scenario_run(self, monkeypatch):
        calls = self.count_coefficient_calls(monkeypatch)
        config = RunConfig(scenario="a", trials=5, master_seed=8,
                           snr_points_db=(0.0, 10.0, 20.0), parallelism=1)
        run_scenario(config)
        definition = config.resolve_scenario()
        assert calls == [(*definition.dims, tuple(definition.lambda_grid))]

    def test_one_plan_per_dims_block(self, monkeypatch):
        calls = self.count_coefficient_calls(monkeypatch)
        config = RunConfig(scenario="h", trials=3, master_seed=6,
                           snr_points_db=(0.0, 10.0), parallelism=1)
        dim_sweep(config)
        definition = config.resolve_scenario()
        grid = tuple(definition.lambda_grid)
        assert calls == [(*dims, grid) for dims in definition.dims_list]


class TestVerifyTheorem:
    def test_zero_variances_give_zero_columns(self):
        defn = ScenarioDefinition(
            name="null", description="no signal, no noise",
            correlation=CorrelationSpec(kind="identity", dim=16),
            signal=DistributionSpec.gaussian(0.0),
            noise=DistributionSpec.gaussian(0.0),
            swept=None, dims=(16, 8), lambda_grid=(0.5, 1.0),
            snr_points_db=(0.0,),
        )
        rows = verify_theorem(RunConfig(scenario=defn, trials=10, master_seed=2))
        for _, mc, predicted, _ in rows:
            assert mc == 0.0
            assert predicted == 0.0

    def test_identity_spectrum_alpha_matches_closed_form(self):
        m = 60
        defn = ScenarioDefinition(
            name="ident", description="identity correlation, t = 1",
            correlation=CorrelationSpec(kind="identity", dim=m),
            signal=DistributionSpec.gaussian(2.0),
            noise=DistributionSpec.gaussian(1.0),
            swept=None, dims=(m, m), lambda_grid=(float(m),),
            snr_points_db=(3.0,),
        )
        rows = verify_theorem(RunConfig(scenario=defn, trials=5, master_seed=3))
        delta = (math.sqrt(5.0) - 1.0) / 2.0
        xi1 = m * delta / (1.0 + delta)
        xi2 = 1.0 - delta / (1.0 + delta)
        assert rows[0][2] == pytest.approx(xi1 * 2.0 + xi2 * 1.0, rel=1e-9)

    def test_writes_csv(self, tmp_path):
        out = tmp_path / "theorem.csv"
        config = RunConfig(scenario="fig1", trials=5, master_seed=4,
                           lambda_grid=(0.01, 1.0), output_path=str(out))
        verify_theorem(config)
        text = out.read_text()
        assert "lambda,mc_mean_phi,alpha,rel_error" in text


    # no field here is read by the run, so none may be set away from its RunConfig default
    @pytest.mark.parametrize("field, value", [("snr_points_db", (5.0,)), ("dump_trials", True),
                                              ("parallelism", 2), ("parallelism", None)],
                             ids=["snr_points_db", "dump_trials", "parallelism-2",
                                  "parallelism-auto"])
    def test_rejects_snr_points_it_would_not_run(self, tmp_path, field, value):
        config = RunConfig(scenario="fig1", trials=2, output_path=str(tmp_path / "fig1.csv"),
                           **{field: value})
        with pytest.raises(ValueError, match=field):
            verify_theorem(config)
        assert not list(tmp_path.iterdir())

    def test_more_draws_than_one_block_match_the_per_draw_sum(self):
        # the per-draw reference: a LinearModel and a Cholesky ridge_solve per (draw, penalty)
        defn = replace(scenario_catalog("fig1"), dims=(40, 20), lambda_grid=(1e-2, 1.0, 10.0))
        config = RunConfig(scenario=defn, trials=estimator.COST_BLOCK + 3, master_seed=9)
        rows = verify_theorem(config)
        m, k = defn.dims
        spectrum = _correlation_for(defn, m, config.master_seed)
        wbar = derive_rng(config.master_seed, STREAM_FIXED_DESIGN).standard_normal((m, k))
        design = spectrum.sqrt_apply(wbar)
        sums = np.zeros(len(defn.lambda_grid))
        for draw in range(config.trials):
            truth = sample_truth(defn.signal, defn.noise, m, k,
                                 derive_rng(config.master_seed, STREAM_THEOREM_DRAWS, draw))
            model = estimator.LinearModel(design=design, raw_design=wbar, spectrum=spectrum,
                                          y=design @ truth.x0 + truth.n)
            sums += [estimator.ridge_solve(model, lam).phi for lam in defn.lambda_grid]
        np.testing.assert_allclose([row[1] for row in rows], sums / config.trials,
                                   rtol=1e-10, atol=0)

    def test_fig1_costs_never_reach_the_thin_svd(self, monkeypatch):
        # the fig1 design has cond(W)^2 far below 1 / GRAM_RCOND, so eigh of its Gram serves
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd was called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert len(verify_theorem(RunConfig(scenario="fig1", trials=3, master_seed=2))) == 20

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_fig1_means_match_thin_svd_costs(self, seed):
        # the mean costs against a thin-SVD reference over the same design and draws,
        # independent of the printed digits the pinned CSV hash covers
        config = RunConfig(scenario="fig1", trials=12, master_seed=seed)
        rows = verify_theorem(config)
        definition = config.resolve_scenario()
        m, k = definition.dims
        grid = np.array(definition.lambda_grid)
        spectrum = _correlation_for(definition, m, seed)
        design = spectrum.sqrt_apply(derive_rng(seed, STREAM_FIXED_DESIGN).standard_normal((m, k)))
        signal, noise = definition.specs_at(definition.snr_points_db[0])
        ys = np.array([design @ truth.x0 + truth.n for truth in (
            sample_truth(signal, noise, m, k, derive_rng(seed, STREAM_THEOREM_DRAWS, draw))
            for draw in range(config.trials))]).T
        u, s, _ = np.linalg.svd(design, full_matrices=False)
        coef = u.T @ ys
        costs = ((grid[:, None] / (s ** 2 + grid[:, None])) @ coef ** 2
                 + np.sum((ys - u @ coef) ** 2, axis=0)) / k
        xi, _ = coefficients_grid(spectrum, m, k, grid)
        assert [row[0] for row in rows] == grid.tolist()
        assert [row[2] for row in rows] == alpha(xi, signal.implied_variance,
                                                 noise.implied_variance).tolist()
        np.testing.assert_allclose([row[1] for row in rows], costs.mean(axis=1), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("lam", [0.0, -0.5])
    def test_rejects_a_nonpositive_penalty(self, lam):
        config = RunConfig(scenario="fig1", trials=2, lambda_grid=(0.1, lam))
        with pytest.raises(ValueError, match="lambda must be positive"):
            verify_theorem(config)

    def test_non_finite_draw_raises_dimension_error(self, monkeypatch):
        def nan_noise(*args):
            truth = sample_truth(*args)
            return replace(truth, n=np.full_like(truth.n, np.nan))

        monkeypatch.setattr("ridgesnr.harness.sample_truth", nan_noise)
        with pytest.raises(DimensionError, match="non-finite"):
            verify_theorem(RunConfig(scenario="fig1", trials=2, master_seed=1))


def ls_moment(model) -> tuple[float, float]:
    """Psi-free least-squares moment pair (sigma_x2, sigma_n2) for M > K, from numpy alone:
    ||y - W x_LS||^2 / (M - K) and (||x_LS||^2 - sigma_n2 tr((W^T W)^-1)) / K, both unbiased
    given W for any zero-mean iid signal and noise."""
    w, y = model.design, model.y
    m, k = w.shape
    x_ls = np.linalg.lstsq(w, y, rcond=None)[0]
    resid = y - w @ x_ls
    sigma_n2 = float(resid @ resid) / (m - k)
    sigma_x2 = (float(x_ls @ x_ls) - sigma_n2 * float(np.trace(np.linalg.inv(w.T @ w)))) / k
    return sigma_x2, sigma_n2


# On tall catalog blocks with their small-penalty grids the proposed estimate reduces to
# nearly the LS moment pair, so on the sweep's own draws its NMSE and dB bias track the pair's.
# Its finite penalties leave a systematic gap at low SNR: about 0.06 dB of bias at a, -4 dB.
@pytest.mark.parametrize("name", ["a", "c", "d"])
def test_proposed_ties_the_ls_moment_yardstick(name):
    definition = scenario_catalog(name, seed=0)
    m, k = definition.dims
    spectrum = _correlation_for(definition, m, 0)
    plan = estimator.EstimatorPlan(spectrum, m, k, definition.lambda_grid)
    for point, snr_db in enumerate((-4.0, 12.0)):
        specs = definition.specs_at(snr_db)
        models = [_draw_trial(spectrum, *specs, m, k, 0, (STREAM_TRIALS, point, trial))[1]
                  for trial in range(400)]
        proposed = _aggregate(snr_db, "proposed", m, k, [plan.estimate(mo) for mo in models])
        pair = _aggregate(snr_db, "ls", m, k, estimates(*map(ls_moment, models)))
        assert abs(proposed.nmse_db - pair.nmse_db) <= 0.2, (snr_db, proposed, pair)
        assert abs(proposed.bias_db - pair.bias_db) <= 0.1, (snr_db, proposed, pair)


class TestDimSweep:
    def test_runs_each_dimension(self, tmp_path):
        config = RunConfig(scenario="h", trials=6, master_seed=6,
                           snr_points_db=(10.0,), parallelism=1,
                           output_path=str(tmp_path / "dims.csv"))
        rows = dim_sweep(config)
        dims_seen = {(r.m, r.k) for r in rows}
        assert dims_seen == {(31, 30), (30, 35)}

    def test_dims_override(self):
        config = RunConfig(scenario="a", trials=4, master_seed=6,
                           snr_points_db=(10.0,), dims=((16, 8),))
        rows = dim_sweep(config)
        assert {(r.m, r.k) for r in rows} == {(16, 8)}

    def test_header_records_the_dims_that_ran(self, tmp_path):
        headers = {}
        for dims in (None, ((16, 8), (20, 10))):
            out = tmp_path / f"dims_{len(dims or ())}.csv"
            dim_sweep(RunConfig(scenario="h", trials=2, master_seed=6, snr_points_db=(10.0,),
                                dims=dims, output_path=str(out)))
            headers[dims] = out.read_text().splitlines()[1]
        assert headers[None] == "# scenario=h trials=2 seed=6 snr_points_db=10"
        assert headers[((16, 8), (20, 10))] == headers[None] + " dims=16x8;20x10"

    @pytest.mark.parametrize("runner, scenario", [
        (run_scenario, "a"), (verify_theorem, "fig1"), (lambda_sensitivity, "i")])
    def test_other_runs_reject_dims_they_would_not_run(self, tmp_path, runner, scenario):
        out = tmp_path / "run.csv"
        config = RunConfig(scenario=scenario, trials=2, dims=((16, 8),), output_path=str(out))
        with pytest.raises(ValueError, match="dims"):
            runner(config)
        assert not out.exists()

    def test_small_dims_comparative_behavior(self):
        # 10x7 stays ahead of the baseline even where both are poor; 40x20
        # keeps its variance within 3x of the 80x40 value at the same grid
        config = RunConfig(scenario="g", trials=300, master_seed=6,
                           snr_points_db=(10.0,), parallelism=2)
        rows = dim_sweep(config)

        def var_of(method, m, k):
            return next(r.norm_err_var for r in rows
                        if r.method == method and (r.m, r.k) == (m, k))

        assert var_of("proposed", 10, 7) < var_of("ml", 10, 7)
        assert var_of("proposed", 40, 20) <= 3.0 * var_of("proposed", 80, 40)


class TestLambdaSensitivity:
    def test_three_grids_tagged(self):
        config = RunConfig(scenario="i", trials=4, master_seed=7,
                           snr_points_db=(10.0,), parallelism=1)
        rows = lambda_sensitivity(config)
        labels = {r.grid_label for r in rows}
        assert len(labels) == 3
        assert all(r.grid_label for r in rows)

    def test_rejects_a_grid_it_would_not_run(self):
        config = RunConfig(scenario="i", trials=2, lambda_grid=(0.5, 0.6))
        with pytest.raises(ValueError, match="lambda_grid"):
            lambda_sensitivity(config)

    def test_rejects_a_scenario_without_grids(self, tmp_path):
        # the default scenario a has no lambda_grids; it must not run another scenario's
        out = tmp_path / "grids.csv"
        config = RunConfig(trials=1, snr_points_db=(10.0,), output_path=str(out))
        with pytest.raises(ValueError, match="lambda_grids"):
            lambda_sensitivity(config)
        assert not out.exists()


class TestSnrPointRule:
    """Every sweep checks each SNR point with ScenarioDefinition.specs_at first."""

    # scenario a with the sensitivity grids, so that every runner sweeps the same world
    DEFINITION = replace(scenario_catalog("a"), lambda_grids=scenario_catalog("i").lambda_grids)

    @pytest.mark.parametrize("snr_db", [math.nan, 1e6, -3300.0])
    @pytest.mark.parametrize("runner", [run_scenario, dim_sweep, lambda_sensitivity],
                             ids=lambda runner: runner.__name__)
    def test_rejects_an_unrepresentable_point_before_any_trial(self, monkeypatch, tmp_path,
                                                               runner, snr_db):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("ridgesnr.harness._draw_trial", no_trial)
        out = tmp_path / "run.csv"
        config = RunConfig(scenario=self.DEFINITION, trials=2, snr_points_db=(10.0, snr_db),
                           output_path=str(out))
        with pytest.raises(ValueError, match=re.escape(f"SNR point {snr_db} dB is out of range")):
            runner(config)
        assert not out.exists()


class TestEstimateFromFiles:
    """Square requests read from CSV files agree with an independent reference."""

    @pytest.mark.parametrize("grid", [(1e-6, 2e-6, 3e-6, 4e-6), (1e-3, 2e-3, 3e-3, 4e-3)],
                             ids=["1e-6", "default"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_square_request_matches_the_reference(self, tmp_path, seed, grid):
        paths, (psi, wbar, y) = write_square_request(tmp_path, seed, 60)
        estimate, _ = estimate_from_files(*paths, grid)
        reference = reference_estimate(psi, wbar, y, grid)
        sigma = np.array([estimate.sigma_x2_hat, estimate.sigma_n2_hat])
        assert np.all(np.isfinite(sigma))
        assert np.max(np.abs(sigma - reference)) <= 1e-5 * np.sum(reference)


class TestCsvTables:
    @pytest.mark.parametrize("value, text", [
        (True, "1"), (False, "0"), (np.bool_(True), "1"), (np.bool_(False), "0"),
        (7, "7"), (-12345678901234, "-12345678901234"), (np.int64(40), "40"),
        (0.1, "0.1"), (1.0, "1"), (10.0, "10"), (1 / 3, "0.333333333333"), (1e-300, "1e-300"),
        (np.float64(2 / 3), "0.666666666667"), (math.nan, "nan"), (np.float64(math.inf), "inf"),
        (-math.inf, "-inf"), ("proposed", "proposed"), ("", ""), ("0.001;0.002", "0.001;0.002"),
    ])
    def test_cell_text_follows_the_value_type(self, value, text):
        assert _cell(value) == text

    # the column lists fix each file's column order; a reordering shows here by name
    def test_header_lines(self, tmp_path):
        run_scenario(small_config(tmp_path, trials=2))
        verify_theorem(RunConfig(scenario="fig1", trials=2, lambda_grid=(0.5,),
                                 output_path=str(tmp_path / "theorem.csv")))
        headers = {name: next(line for line in (tmp_path / name).read_text().splitlines()
                              if not line.startswith("#"))
                   for name in ("out_p1.csv", "out_p1_trials.csv", "theorem.csv")}
        assert headers == {
            "out_p1.csv": "snr_true_db,method,m,k,trials,trials_degenerate,trials_failed,"
                          "mean_est_db,bias_db,nmse_db,norm_err_mean,norm_err_var,grid_label",
            "out_p1_trials.csv": "snr_true_db,method,m,k,trial,sigma_x2_hat,sigma_n2_hat,"
                                 "snr_linear,snr_db,degenerate,grid_label",
            "theorem.csv": "lambda,mc_mean_phi,alpha,rel_error",
        }


# sha256 of the metrics and per-trial CSVs at trials=4, seed=3, one SNR point.
# Changes to the sweep machinery must leave every byte of output unchanged;
# a deliberate change to the numbers or the format updates these pins.
_PINNED_SWEEPS = {
    "a": (run_scenario,
          "1b5fefa9e919a87bbba71194281d2d2c8c33e2f5869c40535effcba2df5a1330",
          "e8ad930594cbe80f2e2403fff36a20a2adc2dea6accb1330c895a28d9257ba2c"),
    "h": (dim_sweep,
          "3e859fc43d337c1cde08e10af4c9fc36db530d7cad98d41236b5ea4657dce3e4",
          "fa80271bc7e4fda5100a490eba663370dca7ac37eb93077b3f65e3fd84613b8d"),
    "i": (lambda_sensitivity,
          "1b41ae28772c89e60be0a520fc71cf67d859639d1b9a8c62714287bbfd172861",
          "94c8c4491541bd25e1fbe875ed2d0760fa66e6b81cceef05dca41284f12a2f0e"),
}
_PINNED_THEOREM = "4f216a23755c2d569fc3606ceccf7f117dd3327ca87670651d52b3f2c24a2ecf"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedOutput:
    @pytest.mark.parametrize("scenario", sorted(_PINNED_SWEEPS))
    def test_sweep_csvs_are_byte_identical(self, tmp_path, scenario):
        runner, metrics_sha, trials_sha = _PINNED_SWEEPS[scenario]
        out = tmp_path / "run.csv"
        runner(RunConfig(scenario=scenario, trials=4, master_seed=3,
                         snr_points_db=(10.0,), output_path=str(out), dump_trials=True))
        assert _sha256(out) == metrics_sha
        assert _sha256(tmp_path / "run_trials.csv") == trials_sha

    def test_theorem_csv_is_byte_identical(self, tmp_path):
        out = tmp_path / "theorem.csv"
        verify_theorem(RunConfig(scenario="fig1", trials=4, master_seed=3,
                                 output_path=str(out)))
        assert _sha256(out) == _PINNED_THEOREM


# every wrong value is a ValueError from RunConfig itself, before any trial runs;
# a value of the wrong kind names its field as repr(name)
@pytest.mark.parametrize("changes, message", [
    (dict(trials=0), "trials must be at least 1"),
    (dict(parallelism=0), "parallelism must be positive"),
    (dict(trials=2.5), "'trials' = 2.5: 2.5 is not an integer"),
    (dict(parallelism=2.5), "'parallelism' = 2.5: 2.5 is not an integer"),
    (dict(trials=True), "'trials' = True: True is not an integer"),
    (dict(output_path=123), "'output_path' = 123: 123 is not a str or os.PathLike"),
    (dict(lambda_grid=("0.001", "0.002")),
     "'lambda_grid' = ('0.001', '0.002'): '0.001' is not a real number"),
    (dict(dump_trials="no"), "'dump_trials' = 'no': 'no' is not a bool"),
    (dict(snr_points_db=10.0), "'snr_points_db' = 10.0: "),
    (dict(master_seed=-1), "master_seed must be at least 0"),
    (dict(dump_trials=True), "dump_trials needs an output_path"),
], ids=["trials", "parallelism", "trials-float", "parallelism-float", "trials-bool",
        "output-path-int", "lambda-grid-strings", "dump-trials-str", "snr-points-scalar",
        "master-seed-negative", "dump-trials-without-output-path"])
def test_input_checks(changes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig(**changes)


# an accepted value is stored normalized; repr also compares the stored types, since a
# numpy scalar's repr differs from a builtin's
@pytest.mark.parametrize("changes, stored", [
    (dict(trials=np.int64(3)), dict(trials=3)),
    (dict(master_seed=np.int64(7)), dict(master_seed=7)),
    (dict(lambda_grid=np.array([1e-3, 2e-3])), dict(lambda_grid=(1e-3, 2e-3))),
    (dict(lambda_grid=[1, 2e-3]), dict(lambda_grid=(1.0, 2e-3))),
    (dict(lambda_grid=(), snr_points_db=[], dims=()),
     dict(lambda_grid=None, snr_points_db=None, dims=None)),
    (dict(dims=[[np.int64(16), 8]], parallelism=None), dict(dims=((16, 8),), parallelism=None)),
], ids=["numpy-trials", "numpy-seed", "numpy-grid", "list-grid", "empty", "dims-list"])
def test_accepted_inputs_are_normalized(changes, stored):
    config = RunConfig(**changes)
    for name, value in stored.items():
        assert getattr(config, name) == value
        assert repr(getattr(config, name)) == repr(value)
