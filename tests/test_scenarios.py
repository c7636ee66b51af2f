import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.special

from ridgesnr import (
    CorrelationSpec,
    CorrelationSpectrum,
    DimensionError,
    DistributionSpec,
    build_correlation,
    derive_rng,
    sample_truth,
    scenario_catalog,
    synthesize,
)
from ridgesnr.scenarios import SCENARIO_NAMES


class TestBuildCorrelation:
    def test_exponential_rho_zero_is_identity(self):
        spec = build_correlation(CorrelationSpec(kind="exponential", dim=6, rho_hat=0.0))
        assert spec.diagonal
        assert np.allclose(spec.eigenvalues, 1.0)

    def test_bessel_unit_diagonal(self):
        spec = build_correlation(CorrelationSpec(kind="bessel", dim=12))
        psi = spec.matrix()
        assert np.allclose(np.diag(psi), 1.0, atol=1e-8)
        assert psi[0, 1] == pytest.approx(float(mpmath.besselj(0, math.pi)), abs=1e-8)
        assert psi[0, 2] == pytest.approx(float(mpmath.besselj(0, 4 * math.pi)), abs=1e-8)

    @pytest.mark.parametrize("m", [31, 80, 300])
    def test_bessel_matrix_matches_scalar_loop(self, monkeypatch, m):
        dense = []
        monkeypatch.setattr(CorrelationSpectrum, "from_matrix",
                            classmethod(lambda cls, psi: dense.append(psi)))
        build_correlation(CorrelationSpec(kind="bessel", dim=m))
        row = [float(scipy.special.j0(math.pi * d * d)) for d in range(m)]
        psi = np.array([[row[abs(i - j)] for j in range(m)] for i in range(m)])
        assert np.array_equal(dense[0], psi)

    def test_exponential_entries(self):
        spec = build_correlation(CorrelationSpec(kind="exponential", dim=8, rho_hat=0.4))
        psi = spec.matrix()
        assert psi[0, 1] == pytest.approx(0.4, abs=1e-8)
        assert psi[0, 2] == pytest.approx(0.4 ** 4, abs=1e-8)  # exponent |i-j|^2
        assert psi[0, 3] == pytest.approx(0.4 ** 9, abs=1e-8)

    def test_exponential_psd_no_flooring(self):
        # strictly PD in exact arithmetic; at rho close to 1 the smallest
        # eigenvalues fall below float64 resolution and floor to exactly zero
        for rho in (0.1, 0.4, 0.7):
            spec = build_correlation(CorrelationSpec(kind="exponential", dim=40, rho_hat=rho))
            assert np.all(spec.eigenvalues > 0)
        spec = build_correlation(CorrelationSpec(kind="exponential", dim=40, rho_hat=0.95))
        assert np.all(spec.eigenvalues >= 0)

    def test_bessel_psd_at_benchmark_size(self):
        spec = build_correlation(CorrelationSpec(kind="bessel", dim=80))
        assert np.all(spec.eigenvalues > 0)

    def test_diag_uniform_squares_and_determinism(self):
        spec1 = build_correlation(CorrelationSpec(kind="diag_uniform", dim=50, seed=9))
        spec2 = build_correlation(CorrelationSpec(kind="diag_uniform", dim=50, seed=9))
        assert spec1.diagonal
        assert np.array_equal(spec1.eigenvalues, spec2.eigenvalues)
        assert np.all(spec1.eigenvalues >= 0)
        assert np.all(spec1.eigenvalues <= 1.0)  # squares of U(0,1) draws

    def test_diag_uniform_requires_seed(self):
        with pytest.raises(ValueError):
            build_correlation(CorrelationSpec(kind="diag_uniform", dim=10))

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            CorrelationSpec(kind="exponential", dim=4, rho_hat=1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            CorrelationSpec(kind="gaussian", dim=4)


class TestDistributionSpec:
    def test_gaussian_zero_variance_draws_zeros(self):
        spec = DistributionSpec.gaussian(0.0)
        assert np.array_equal(spec.sample(np.random.default_rng(0), 16), np.zeros(16))

    def test_implied_variances(self):
        assert DistributionSpec.gaussian(0.7).implied_variance == 0.7
        assert DistributionSpec.uniform(3.0).implied_variance == pytest.approx(3.0)
        assert DistributionSpec.uniform(5.0).implied_variance == pytest.approx(25.0 / 3.0)
        assert DistributionSpec.student_t(5.0).implied_variance == pytest.approx(5.0 / 3.0)

    def test_student_t_sample_variance(self):
        rng = np.random.default_rng(123)
        draws = DistributionSpec.student_t(5.0).sample(rng, 1_000_000)
        assert draws.var() == pytest.approx(5.0 / 3.0, rel=0.02)

    def test_uniform_sample_variance(self):
        rng = np.random.default_rng(124)
        draws = DistributionSpec.uniform(3.0).sample(rng, 200_000)
        assert draws.var() == pytest.approx(3.0, rel=0.02)
        assert np.max(np.abs(draws)) <= 3.0

    def test_student_t_needs_dof_above_two(self):
        with pytest.raises(ValueError):
            DistributionSpec.student_t(2.0)


class TestSampleTruth:
    def test_draws_x0_then_n_from_one_stream(self):
        signal, noise = DistributionSpec.gaussian(2.0), DistributionSpec.uniform(0.5)
        x0, n = sample_truth(signal, noise, m=30, k=10, rng=np.random.default_rng(1))
        rng = np.random.default_rng(1)
        assert np.array_equal(x0, signal.sample(rng, 10))
        assert np.array_equal(n, noise.sample(rng, 30))


class TestSynthesize:
    def test_identity_correlation_keeps_raw_design(self):
        spec = CorrelationSpectrum.from_diagonal(np.ones(12))
        x0, n = sample_truth(DistributionSpec.gaussian(1.0), DistributionSpec.gaussian(0.1),
                             m=12, k=5, rng=np.random.default_rng(3))
        model = synthesize(spec, x0, n, np.random.default_rng(4))
        assert np.array_equal(model.design, model.raw_design)

    def test_vanishing_correlation_leaves_noise_only(self):
        # an all-zero spectrum is rejected by construction, so take the limit
        spec = CorrelationSpectrum.from_diagonal(np.full(12, 1e-30))
        x0, n = sample_truth(DistributionSpec.gaussian(1.0), DistributionSpec.gaussian(0.1),
                             m=12, k=5, rng=np.random.default_rng(5))
        model = synthesize(spec, x0, n, np.random.default_rng(6))
        assert np.linalg.norm(model.y - n) <= 1e-10 * np.linalg.norm(n)

    def test_zero_trace_spectrum_rejected(self):
        with pytest.raises(Exception):
            CorrelationSpectrum.from_diagonal(np.zeros(12))

    def test_deterministic_given_stream(self):
        spec = CorrelationSpectrum.from_diagonal(np.linspace(0.1, 1.0, 12))
        sig = DistributionSpec.gaussian(1.0)
        noi = DistributionSpec.gaussian(0.1)
        y = []
        for _ in range(2):
            rng = derive_rng(42, 0, 0, 3)
            y.append(synthesize(spec, *sample_truth(sig, noi, 12, 5, rng), rng).y)
        assert np.array_equal(y[0], y[1])

    def test_signal_energy_moment(self):
        # (1/K) E||W x0||^2 = sigma_x^2 * tr(Psi)
        rng = np.random.default_rng(7)
        q = rng.uniform(0.0, 1.0, 40)
        spec = CorrelationSpectrum.from_diagonal(q)
        sig = DistributionSpec.gaussian(0.8)
        noi = DistributionSpec.gaussian(0.0)
        k = 16
        acc = 0.0
        draws = 500
        for trial in range(draws):
            trng = derive_rng(55, 0, 0, trial)
            x0, n = sample_truth(sig, noi, 40, k, trng)
            model = synthesize(spec, x0, n, trng)
            acc += float(model.y @ model.y) / k
        assert acc / draws == pytest.approx(0.8 * q.sum(), rel=0.05)

    def test_raw_design_second_moment(self):
        spec = CorrelationSpectrum.from_diagonal(np.ones(100))
        x0, n = sample_truth(DistributionSpec.gaussian(1.0), DistributionSpec.gaussian(1.0),
                             m=100, k=1000, rng=np.random.default_rng(8))
        model = synthesize(spec, x0, n, np.random.default_rng(9))
        assert np.mean(model.raw_design ** 2) == pytest.approx(1.0, rel=0.02)


class TestCatalog:
    def test_scenario_a(self):
        defn = scenario_catalog("a", seed=0)
        assert defn.dims == (80, 40)
        assert defn.lambda_grid == (1e-3, 2e-3, 3e-3, 4e-3)
        assert defn.correlation.kind == "diag_uniform"
        assert defn.noise.implied_variance == pytest.approx(0.1)
        assert defn.swept == "signal"
        assert defn.snr_points_db[0] == -4.0 and defn.snr_points_db[-1] == 20.0
        sig, noi = defn.specs_at(10.0)
        assert sig.implied_variance == pytest.approx(1.0)
        assert noi.implied_variance == pytest.approx(0.1)

    def test_scenario_b(self):
        defn = scenario_catalog("b")
        assert defn.correlation.kind == "bessel"
        assert defn.noise.kind == "uniform"
        assert defn.noise.implied_variance == pytest.approx(3.0)

    def test_scenario_c(self):
        defn = scenario_catalog("c")
        assert defn.correlation.rho_hat == pytest.approx(0.4)
        assert defn.signal.kind == "uniform"
        assert defn.swept == "noise"
        sig, noi = defn.specs_at(0.0)
        assert noi.implied_variance == pytest.approx(25.0 / 3.0)

    # c sweeps the noise, 25/3 * 10 ** (-dB/10); a sweeps the signal, 0.1 * 10 ** (dB/10)
    @pytest.mark.parametrize("name, snr_db, variance", [("c", -3082.0, "noise variance inf"),
                                                        ("a", -3300.0, "signal variance 0.0")])
    def test_specs_at_rejects_a_swept_variance_out_of_range(self, name, snr_db, variance):
        with pytest.raises(ValueError, match=f"SNR point {snr_db} dB is out of range: "
                                             f"the swept {variance} is not"):
            scenario_catalog(name).specs_at(snr_db)

    # c at +3100 dB sweeps a positive noise variance 25/3 * 10 ** -310, but 10 ** 310
    # overflows; fig1 sweeps nothing, so only the powers of ten are checked
    @pytest.mark.parametrize("name, snr_db", [("c", 3100.0), ("fig1", 4000.0),
                                              ("fig1", -4000.0)])
    def test_specs_at_rejects_a_power_of_ten_out_of_range(self, name, snr_db):
        with pytest.raises(ValueError, match=re.escape(
                f"SNR point {snr_db} dB is out of range: 10 ** (dB/10) and 10 ** (-dB/10) "
                f"must both be positive and finite")):
            scenario_catalog(name).specs_at(snr_db)

    def test_scenario_d(self):
        defn = scenario_catalog("d")
        assert defn.signal.kind == "student_t"
        assert defn.signal.implied_variance == pytest.approx(5.0 / 3.0)

    def test_dim_sweep_entries(self):
        g = scenario_catalog("g")
        h = scenario_catalog("h")
        assert (10, 7) in g.dims_list and (40, 20) in g.dims_list
        assert h.dims_list == ((31, 30), (30, 35))

    def test_sensitivity_grids(self):
        defn = scenario_catalog("i")
        assert len(defn.lambda_grids) == 3
        assert defn.lambda_grids[0] == (1e-3, 2e-3, 3e-3, 4e-3)

    def test_fig1(self):
        defn = scenario_catalog("fig1", seed=0)
        assert defn.dims == (300, 100)
        assert defn.signal.implied_variance == pytest.approx(10.0)
        assert defn.noise.implied_variance == pytest.approx(1.0)
        assert defn.swept is None
        assert len(defn.lambda_grid) == 20

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            scenario_catalog("z")

    def test_names_are_stable(self):
        assert SCENARIO_NAMES == ("a", "b", "c", "d", "g", "h", "i", "fig1")


@pytest.mark.parametrize("call, error, message", [
    (lambda: CorrelationSpec(kind="identity", dim=0), DimensionError, "dim must be positive"),
    (lambda: DistributionSpec("cauchy", 1.0), ValueError, "unknown distribution kind 'cauchy'"),
    (lambda: DistributionSpec.gaussian(-1.0), ValueError, "scale parameter must be nonnegative"),
    (lambda: synthesize(CorrelationSpectrum.from_diagonal(np.ones(4)),
                        *sample_truth(DistributionSpec.gaussian(1.0), DistributionSpec.gaussian(1.0),
                                      5, 3, np.random.default_rng(0)),
                        np.random.default_rng(1)),
     DimensionError, "noise length 5 != correlation dim 4"),
    (lambda: replace(scenario_catalog("a"), swept="Signal"), ValueError,
     "swept must be None, 'signal' or 'noise', got 'Signal'"),
], ids=["dim", "kind", "scale", "noise length", "swept"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
