"""Experimental worlds: correlation models, signal/noise samplers, and
synthetic observations y = Psi^(1/2) Wbar x0 + n.

The catalog collects the benchmark configurations used throughout the test
harness: four 80x40 worlds differing in correlation/signal/noise models, a
dimension-robustness sweep, a penalty-sensitivity sweep, and the large
(300x100) setup used to verify the deterministic cost prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .estimator import LinearModel
from .exceptions import DimensionError
from .rmt import CorrelationSpectrum

__all__ = [
    "CorrelationSpec",
    "DistributionSpec",
    "ScenarioDefinition",
    "build_correlation",
    "sample_truth",
    "synthesize",
    "scenario_catalog",
]

CORRELATION_KINDS = ("identity", "diag_uniform", "bessel", "exponential")


@dataclass(frozen=True)
class CorrelationSpec:
    """Recipe for the left correlation matrix.

    kind:
      identity      Psi = I
      diag_uniform  Psi^(1/2) = diag(psi), psi_i ~ U(0, 1), needs ``seed``
      bessel        Psi_ij = J0(pi |i-j|^2)
      exponential   Psi_ij = rho_hat^(|i-j|^2), rho_hat in [0, 1)
    """

    kind: str
    dim: int
    rho_hat: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in CORRELATION_KINDS:
            raise ValueError(f"unknown correlation kind {self.kind!r}")
        if self.dim < 1:
            raise DimensionError("dim must be positive")
        if self.kind == "exponential" and not (0.0 <= self.rho_hat < 1.0):
            raise ValueError(f"rho_hat must lie in [0, 1), got {self.rho_hat}")


@dataclass(frozen=True)
class DistributionSpec:
    """Zero-mean iid entry distribution for the signal or the noise.

    kind is one of gaussian / uniform / student_t; ``parameter`` is the
    variance, the half-width a of U(-a, a), or the degrees of freedom.
    """

    kind: str
    parameter: float

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "student_t"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "student_t" and self.parameter <= 2:
            raise ValueError("student_t needs dof > 2 for a finite variance")
        if self.kind in ("gaussian", "uniform") and self.parameter < 0:
            raise ValueError("scale parameter must be nonnegative")

    @classmethod
    def gaussian(cls, variance: float) -> "DistributionSpec":
        return cls("gaussian", variance)

    @classmethod
    def uniform(cls, half_width: float) -> "DistributionSpec":
        return cls("uniform", half_width)

    @classmethod
    def student_t(cls, dof: float) -> "DistributionSpec":
        return cls("student_t", dof)

    @property
    def implied_variance(self) -> float:
        if self.kind == "gaussian":
            return self.parameter
        if self.kind == "uniform":
            return self.parameter ** 2 / 3.0
        return self.parameter / (self.parameter - 2.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "gaussian":
            if self.parameter == 0:
                return np.zeros(size)
            return rng.normal(0.0, math.sqrt(self.parameter), size)
        if self.kind == "uniform":
            return rng.uniform(-self.parameter, self.parameter, size)
        return rng.standard_t(self.parameter, size)


def build_correlation(spec: CorrelationSpec) -> CorrelationSpectrum:
    """Materialize the correlation model as a spectrum.

    Dense models (bessel, exponential) are eigendecomposed by
    ``CorrelationSpectrum.from_matrix``, which floors round-off negative eigenvalues.
    rho_hat = 0 uses the convention 0^0 = 1, i.e. Psi = I.
    """
    m = spec.dim
    if spec.kind == "identity":
        return CorrelationSpectrum.from_diagonal(np.ones(m))
    if spec.kind == "diag_uniform":
        if spec.seed is None:
            raise ValueError("diag_uniform correlation needs a seed")
        rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed))
        psi_root = rng.uniform(0.0, 1.0, m)
        return CorrelationSpectrum.from_diagonal(psi_root ** 2)
    offsets = np.arange(m)
    dist2 = (offsets[:, None] - offsets[None, :]) ** 2
    if spec.kind == "bessel":
        # imported here, as no other model needs scipy.special and loading it
        # slows every `import ridgesnr`
        from scipy.special import j0

        first_row = j0(math.pi * offsets * offsets)
        psi = first_row[np.abs(offsets[:, None] - offsets[None, :])]
    else:
        if spec.rho_hat == 0.0:
            return CorrelationSpectrum.from_diagonal(np.ones(m))
        psi = spec.rho_hat ** dist2.astype(float)
    return CorrelationSpectrum.from_matrix(psi)


def sample_truth(signal: DistributionSpec, noise: DistributionSpec, m: int, k: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw x0 (length k), then n (length m), iid from their distributions."""
    return signal.sample(rng, k), noise.sample(rng, m)


def synthesize(spectrum: CorrelationSpectrum, x0: np.ndarray, n: np.ndarray,
               rng: np.random.Generator) -> LinearModel:
    """Draw Wbar iid standard normal and form the observed model."""
    m = spectrum.dim
    if n.size != m:
        raise DimensionError(f"noise length {n.size} != correlation dim {m}")
    wbar = rng.standard_normal((m, x0.size))
    design = spectrum.sqrt_apply(wbar)
    return LinearModel(design=design, raw_design=wbar, spectrum=spectrum, y=design @ x0 + n)


@dataclass(frozen=True)
class ScenarioDefinition:
    """Complete description of one benchmark experiment.

    ``swept`` names which variance, "signal" or "noise", is adjusted to hit each
    target SNR; any other value but None is a ValueError. ``specs_at`` resolves
    the signal/noise pair for a target point. For the fixed-variance
    verification setup ``swept`` is None and the base specs are used as-is.
    """

    name: str
    description: str
    correlation: CorrelationSpec
    signal: DistributionSpec
    noise: DistributionSpec
    swept: str | None
    dims: tuple[int, int]
    lambda_grid: tuple[float, ...]
    snr_points_db: tuple[float, ...]
    dims_list: tuple[tuple[int, int], ...] = field(default=())
    lambda_grids: tuple[tuple[float, ...], ...] = field(default=())

    def __post_init__(self):
        if self.swept not in (None, "signal", "noise"):
            raise ValueError(f"swept must be None, 'signal' or 'noise', got {self.swept!r}")

    def specs_at(self, snr_db: float) -> tuple[DistributionSpec, DistributionSpec]:
        """The (signal, noise) pair at ``snr_db``. ValueError if the swept variance, or else
        10 ** (+-dB/10), is not a positive finite float (an overflow reads as inf)."""
        up, down = _power_of_ten(snr_db / 10.0), _power_of_ten(-snr_db / 10.0)
        if self.swept is not None:
            variance = (self.noise.implied_variance * up if self.swept == "signal"
                        else self.signal.implied_variance * down)
            if not 0.0 < variance < math.inf:
                raise ValueError(f"SNR point {snr_db} dB is out of range: the swept {self.swept} "
                                 f"variance {variance} is not positive and finite")
        if not (0.0 < up < math.inf and 0.0 < down < math.inf):
            raise ValueError(f"SNR point {snr_db} dB is out of range: 10 ** (dB/10) and "
                             f"10 ** (-dB/10) must both be positive and finite")
        if self.swept is None:
            return self.signal, self.noise
        swept = DistributionSpec.gaussian(variance)
        return (swept, self.noise) if self.swept == "signal" else (self.signal, swept)


def _power_of_ten(exponent: float) -> float:
    try:
        return 10.0 ** float(exponent)  # a numpy float would warn and return inf
    except OverflowError:
        return math.inf


_BASE_SNR_SWEEP = tuple(float(s) for s in range(-4, 21, 2))
_BASE_GRID = (1e-3, 2e-3, 3e-3, 4e-3)
# Near-square systems need penalties well above the interpolation regime to
# keep the per-penalty costs informative; measured on the 31x30 / 30x35 cases.
_DIM_SWEEP_GRID = (0.1, 0.2, 0.3, 0.4)
_SENSITIVITY_GRIDS = (
    (1e-3, 2e-3, 3e-3, 4e-3),
    (1e-2, 2e-2, 3e-2, 4e-2),
    (1e-1, 2e-1, 3e-1, 4e-1),
)

SCENARIO_NAMES = ("a", "b", "c", "d", "g", "h", "i", "fig1")

# Every entry but a and fig1 varies another entry: name -> (base, changed fields).
_VARIANTS = {
    "b": ("a", dict(
        description="Bessel correlation, uniform(-3,3) noise, Gaussian signal swept",
        correlation=CorrelationSpec(kind="bessel", dim=80),
        noise=DistributionSpec.uniform(3.0),
    )),
    "c": ("a", dict(
        description="exponential correlation (0.4), uniform(-5,5) signal, Gaussian noise swept",
        correlation=CorrelationSpec(kind="exponential", dim=80, rho_hat=0.4),
        signal=DistributionSpec.uniform(5.0),
        noise=DistributionSpec.gaussian(1.0),
        swept="noise",
    )),
    "d": ("c", dict(
        description="exponential correlation (0.4), student-t(5) signal, Gaussian noise swept",
        signal=DistributionSpec.student_t(5.0),
    )),
    "g": ("a", dict(
        description="dimension sweep, small systems, scenario-a world",
        lambda_grid=_DIM_SWEEP_GRID,
        dims_list=((10, 7), (20, 10), (40, 20), (80, 40)),
    )),
    "h": ("g", dict(
        description="dimension sweep, near-square systems, scenario-a world",
        dims_list=((31, 30), (30, 35)),
    )),
    "i": ("b", dict(
        description="penalty-grid sensitivity on the scenario-b world",
        lambda_grids=_SENSITIVITY_GRIDS,
    )),
}


def scenario_catalog(name: str, seed: int | None = None) -> ScenarioDefinition:
    """Benchmark configuration by name: a, b, c, d, g, h, i, or fig1.

    ``seed`` feeds the diag_uniform correlation draw where applicable; runs
    that construct the correlation themselves pass their master seed here.
    """
    if name not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    if name in _VARIANTS:
        base, changes = _VARIANTS[name]
        return replace(scenario_catalog(base, seed), name=name, **changes)
    if name == "a":
        return ScenarioDefinition(
            name="a",
            description="diagonal-uniform correlation, Gaussian noise var 0.1, Gaussian signal swept",
            correlation=CorrelationSpec(kind="diag_uniform", dim=80, seed=seed),
            signal=DistributionSpec.gaussian(1.0),
            noise=DistributionSpec.gaussian(0.1),
            swept="signal",
            dims=(80, 40),
            lambda_grid=_BASE_GRID,
            snr_points_db=_BASE_SNR_SWEEP,
        )
    return ScenarioDefinition(
        name="fig1",
        description="deterministic cost prediction vs Monte-Carlo mean, 300x100",
        correlation=CorrelationSpec(kind="diag_uniform", dim=300, seed=seed),
        signal=DistributionSpec.gaussian(10.0),
        noise=DistributionSpec.gaussian(1.0),
        swept=None,
        dims=(300, 100),
        lambda_grid=tuple(np.logspace(-3, 2, 20)),
        snr_points_db=(10.0,),
    )
