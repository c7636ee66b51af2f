#!/usr/bin/env python3
"""Estimate the SNR of one received vector, blind.

Builds a single 80x40 observation y = Psi^(1/2) Wbar x0 + n with known ground
truth, then recovers (sigma_x^2, sigma_n^2) using only y, Wbar, and Psi. The
intermediate per-penalty system is printed so the mechanics are visible: each
row pairs the deterministic coefficients (xi1, xi2) with the realized cost.
"""

from ridgesnr import (
    CorrelationSpec,
    DistributionSpec,
    EstimatorPlan,
    build_correlation,
    derive_rng,
    ml_baseline,
    sample_truth,
    synthesize,
)

M, K = 80, 40
SNR_DB = 12.0
LAMBDAS = (1e-3, 2e-3, 3e-3, 4e-3)
SEED = 7


def main():
    spectrum = build_correlation(CorrelationSpec(kind="exponential", dim=M, rho_hat=0.4))
    sigma_n2 = 0.2
    sigma_x2 = sigma_n2 * 10 ** (SNR_DB / 10)
    rng = derive_rng(SEED, 0)
    x0, n = sample_truth(DistributionSpec.gaussian(sigma_x2),
                         DistributionSpec.gaussian(sigma_n2), M, K, rng)
    model = synthesize(spectrum, x0, n, rng)

    print(f"world: exponential correlation (rho 0.4), {M}x{K}, "
          f"true SNR {SNR_DB:.1f} dB (sigma_x^2={sigma_x2:.3f}, sigma_n^2={sigma_n2:.3f})\n")

    plan = EstimatorPlan(model.spectrum, K, LAMBDAS)
    print(f"{'lambda':>8} {'xi1':>12} {'xi2':>12} {'realized cost':>14}")
    for lam, (xi1, xi2), phi in zip(plan.lambdas, plan.xi, plan.costs(model)):
        print(f"{lam:8.3g} {xi1:12.6f} {xi2:12.6f} {phi:14.6f}")

    estimate = plan.estimate(model)
    print(f"\nblind estimate: sigma_x^2 = {estimate.sigma_x2_hat:.4f}, "
          f"sigma_n^2 = {estimate.sigma_n2_hat:.4f}")
    print(f"estimated SNR  = {estimate.snr_db:+.2f} dB (true {SNR_DB:+.2f} dB)")
    print(f"fit residual   = {estimate.fit_residual_norm:.2e}, "
          f"fixed-point iterations per penalty: {list(estimate.fixed_point_iters)}")

    baseline = ml_baseline(model, sigma_x2)
    print(f"\nML baseline (knows sigma_x^2 exactly): {baseline.snr_db:+.2f} dB; "
          f"its residual normalizer M biases the noise estimate low for M > K.")


if __name__ == "__main__":
    main()
