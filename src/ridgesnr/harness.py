"""Monte-Carlo engine: scenario sweeps, theorem verification, dimension and
penalty-grid robustness runs, metrics aggregation, and CSV output.

Reproducibility contract: every random draw comes from a generator derived as
SeedSequence(entropy=master_seed, spawn_key=stream_key). Stream keys are
(kind, indices...) tuples:

  (0, point, trial)        scenario trials
  (2,)                     the fixed design of a verification run
  (3, draw)                verification signal/noise draws
  (4, grid, point, trial)  penalty-sensitivity trials
  (5, dim, point, trial)   dimension-sweep trials

and the diag-uniform correlation draw uses the bare master seed. Results are
therefore identical for any trial schedule, and the CSV emitted by a run is
byte-identical across parallelism settings.

Each sweep point maps its trials in order, one call per trial: serially through
the builtin ``map``, or (``parallelism`` > 1, at least two trials per worker)
through ``Executor.map`` in about four chunks per worker. A trial keeps the
:class:`SnrEstimate` each method returned, or None where the method failed; the
metrics rows and the trial dump both read those estimates.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from functools import partial
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import dataio
from .estimator import (MAX_ASPECT, MIN_ASPECT, REPORTED, EstimatorPlan, LinearModel, SnrEstimate,
                        _aspect_in_band, _check_aspect, estimate_snr, ml_baseline, ridge_costs)
from .exceptions import RidgeSnrError
from .rmt import CorrelationSpectrum, alpha, coefficients_grid
from .scenarios import (
    ScenarioDefinition,
    build_correlation,
    sample_truth,
    scenario_catalog,
    synthesize,
)

__all__ = [
    "RunConfig",
    "MetricsRow",
    "run_scenario",
    "verify_theorem",
    "dim_sweep",
    "lambda_sensitivity",
    "estimate_from_files",
    "derive_rng",
]

log = logging.getLogger(__name__)

STREAM_TRIALS = 0
STREAM_FIXED_DESIGN = 2
STREAM_THEOREM_DRAWS = 3
STREAM_SENSITIVITY = 4
STREAM_DIM_SWEEP = 5


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (master_seed, key); key parts must be >= 0."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(int(k) for k in key))
    )


# Each RunConfig field's rule returns the value to store, or raises TypeError for a value of
# the wrong kind (a bool, numpy's too, is only a bool) and ValueError for one out of range.
def _kind(value, types, text: str):
    if not isinstance(value, types) or isinstance(value, (bool, np.bool_)) and types is not bool:
        raise TypeError(f"{value!r} is not {text}")
    return value


def _integer(value, least: int, why: str) -> int:
    if _kind(value, (int, np.integer), "an integer") < least:
        raise ValueError(why)
    return int(value)


def _pair(m, k) -> tuple[int, int]:
    why = f"dims {m}x{k} has a negative dimension"
    m, k = _integer(m, 0, why), _integer(k, 0, why)
    if not (m and _aspect_in_band(m, k)):  # the estimator takes no other pair
        raise ValueError(f"dims {m}x{k} needs M, K >= 1 and K/M in [{MIN_ASPECT}, {MAX_ASPECT}]")
    return m, k


def _each(rule):  # a sequence is stored as a tuple, and an empty one as None
    return lambda values: None if values is None else tuple(map(rule, values)) or None


_reals = _each(lambda v: float(_kind(v, (int, float, np.integer, np.floating), "a real number")))
_FIELD_RULES = {
    "trials": lambda v: _integer(v, 1, "trials must be at least 1"),
    "master_seed": lambda v: _integer(v, 0, "master_seed must be at least 0"),
    "lambda_grid": _reals,
    "snr_points_db": _reals,
    "output_path": lambda v: _kind(v, (str, os.PathLike, type(None)), "a str or os.PathLike"),
    "parallelism": lambda v: v if v is None else _integer(v, 1, "parallelism must be positive"),
    "dump_trials": lambda v: _kind(v, bool, "a bool"),
    "dims": _each(lambda pair: _pair(*pair)),
}


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one harness run.

    ``parallelism`` of None means auto (up to 8 workers); results do not
    depend on it. ``lambda_grid`` / ``snr_points_db`` / ``dims`` of None fall back to the
    scenario catalog entry. For verification runs ``trials`` is the number of
    signal/noise draws. Before its first trial a run resolves its scenario with
    :func:`_resolve`, checks its SNR points with ``ScenarioDefinition.specs_at`` and
    solves the fixed point of each penalty grid.
    Each field but ``scenario`` passes its ``_FIELD_RULES`` rule or raises ValueError:
    ``trials`` (>= 1), ``master_seed`` (>= 0) and ``parallelism`` (None or >= 1) are integers
    (numpy's too, never bools), stored as int; ``lambda_grid`` and ``snr_points_db`` (reals) and
    ``dims`` ((M, K) integer pairs, M, K >= 1, K/M in the estimator's band) are None or sequences,
    stored as tuples of floats or int pairs (empty: None); ``output_path`` is None, a str or an
    os.PathLike; ``dump_trials`` a bool, True only with an ``output_path``, beside which it writes.
    """

    scenario: str | ScenarioDefinition = "a"
    trials: int = 1000
    master_seed: int = 0
    lambda_grid: tuple[float, ...] | None = None
    snr_points_db: tuple[float, ...] | None = None
    output_path: str | None = None
    parallelism: int | None = 1
    dump_trials: bool = False
    dims: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        for name, rule in _FIELD_RULES.items():
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, rule(value))
            except (TypeError, OverflowError) as exc:  # the wrong kind of value
                raise ValueError(f"{name!r} = {value!r}: {exc}") from None
        if self.dump_trials and not self.output_path:
            raise ValueError("dump_trials needs an output_path: the per-trial CSV is written "
                             "next to it")


@dataclass(frozen=True)
class MetricsRow:
    """Aggregated metrics for one (configuration point, method).

    mean_est_db is the mean of the per-trial dB estimates over valid trials;
    nmse and the normalized-error statistics are computed on the linear SNR
    scale, normalized by the true linear SNR. Degenerate trials (zero variance
    estimate) and failed trials are excluded from every aggregate and counted.
    With fewer than two valid trials the variance is reported as nan.
    """

    snr_true_db: float
    method: str
    m: int
    k: int
    trials: int
    trials_degenerate: int
    trials_failed: int
    mean_est_db: float
    bias_db: float
    nmse_db: float
    norm_err_mean: float
    norm_err_var: float
    grid_label: str = ""


def _grid_label(grid) -> str:
    return ";".join(_cell(float(v)) for v in grid)


def _aggregate(snr_true_db: float, method: str, m: int, k: int,
               estimates, grid_label: str = "") -> MetricsRow:
    """Fold one method's per-trial estimates (None for a failed trial) into one metrics row."""
    true_lin = 10.0 ** (snr_true_db / 10.0)
    valid = [e for e in estimates if e is not None and not e.degenerate]
    failed = sum(e is None for e in estimates)
    degenerate = len(estimates) - failed - len(valid)
    est_db = np.array([e.snr_db for e in valid])
    errors = np.array([(e.snr_linear - true_lin) / true_lin for e in valid])
    if est_db.size:
        mean_est_db = float(est_db.mean())
        norm_err_mean = float(errors.mean())
        mean_sq = float(np.mean(errors ** 2))
        nmse_db = 10.0 * math.log10(mean_sq) if mean_sq > 0 else -math.inf
        norm_err_var = float(errors.var(ddof=1)) if errors.size >= 2 else math.nan
    else:
        mean_est_db = norm_err_mean = nmse_db = norm_err_var = math.nan
    return MetricsRow(
        snr_true_db=snr_true_db, method=method, m=m, k=k,
        trials=len(estimates), trials_degenerate=degenerate, trials_failed=failed,
        mean_est_db=mean_est_db, bias_db=mean_est_db - snr_true_db,
        nmse_db=nmse_db, norm_err_mean=norm_err_mean, norm_err_var=norm_err_var,
        grid_label=grid_label,
    )


def _draw_trial(spectrum, signal, noise, k: int, master_seed: int, key) -> LinearModel:
    """One trial's model: (x0, n), then Wbar, from the stream for key; M is ``spectrum.dim``."""
    rng = derive_rng(master_seed, *key)
    return synthesize(spectrum, *sample_truth(signal, noise, spectrum.dim, k, rng), rng)


def _attempt(failed: str, call, *args):
    """``call(*args)``, or None after logging ``"<failed>: <exc>"`` if it raises a RidgeSnrError:
    the sweep engine's one rule for a failed step, whose run goes on and records None."""
    try:
        return call(*args)
    except RidgeSnrError as exc:
        log.warning("%s: %s", failed, exc)
        return None


def _run_trial(block, specs, snr_db: float, master_seed: int, key_prefix: tuple[int, ...],
               trial: int) -> list[SnrEstimate | None]:
    """Run one trial; returns its [proposed, ml] SnrEstimate pair.

    ``block`` is (spectrum, k, plan) and ``specs`` the (signal, noise) pair at
    ``snr_db``. A method that fails leaves None in its entry and the other's
    estimate intact; a failed draw fails both, and a plan of None (its build
    failed) fails proposed.
    """
    spectrum, k, plan = block
    failed = f"trial {trial} at {snr_db:.1f} dB failed"
    model = _attempt(failed, _draw_trial, spectrum, *specs, k, master_seed, (*key_prefix, trial))
    if model is None:
        return [None, None]
    return [None if plan is None else _attempt(failed + " in estimate", plan.estimate, model),
            _attempt(failed + " in ml_baseline", ml_baseline, model, specs[0].implied_variance)]


def _correlation_for(definition: ScenarioDefinition, m: int, seed: int) -> CorrelationSpectrum:
    spec = definition.correlation
    if spec.dim != m or (spec.kind == "diag_uniform" and spec.seed is None):
        spec = replace(spec, dim=m, seed=seed if spec.kind == "diag_uniform" else spec.seed)
    return build_correlation(spec)


def _trial_rows(pairs, snr_db, m, k, grid_label=""):
    """TRIAL_COLUMNS rows of each trial's pair; a failed method has nan estimates, not
    degenerate."""
    for trial, pair in enumerate(pairs):
        for method, est in zip(("proposed", "ml"), pair):
            values = (math.nan,) * 4 + (False,) if est is None else attrgetter(*REPORTED)(est)
            yield (snr_db, method, m, k, trial, *values, grid_label)


def _sweep(config: RunConfig, definition: ScenarioDefinition, blocks) -> list[MetricsRow]:
    """Run every SNR point of each block, aggregate both methods, write outputs.

    A block is (m, k, grid, grid_label, key_prefix); trial t at point p draws
    from stream key_prefix + (p, t). The correlation and the estimator plan are
    built once per block, since neither depends on the SNR, and all before the first
    trial, as is every point's specs: a grid or point that raises stops the run before a draw.
    """
    points = definition.snr_points_db
    specs = [definition.specs_at(snr_db) for snr_db in points]
    built = []
    for m, k, grid, label, key_prefix in blocks:
        spectrum = _correlation_for(definition, m, config.master_seed)
        plan = _attempt(f"estimator plan for {m}x{k} failed; proposed fails on every trial",
                        EstimatorPlan, spectrum, k, grid)
        built.append(((spectrum, k, plan), m, k, label, key_prefix))
    rows: list[MetricsRow] = []
    trial_rows: list[tuple] = []
    trials = config.trials
    workers = config.parallelism or min(8, os.cpu_count() or 1)
    pooled = workers > 1 and trials >= 2 * workers
    with ProcessPoolExecutor(workers) if pooled else nullcontext() as pool:
        run = partial(pool.map, chunksize=math.ceil(trials / (4 * workers))) if pooled else map
        for block, m, k, label, key_prefix in built:
            for point_idx, (snr_db, point_specs) in enumerate(zip(points, specs)):
                task = partial(_run_trial, block, point_specs, snr_db, config.master_seed,
                               (*key_prefix, point_idx))
                pairs = list(run(task, range(trials)))
                for method, estimates in zip(("proposed", "ml"), zip(*pairs)):
                    rows.append(_aggregate(snr_db, method, m, k, estimates, label))
                if config.dump_trials:
                    trial_rows.extend(_trial_rows(pairs, snr_db, m, k, label))
    if config.output_path:
        _write_outputs(config, _metrics_table(rows), _table(TRIAL_COLUMNS, trial_rows))
    return rows


# run -> the RunConfig fields it does not read. The run rejects each one set away from
# its default, and the CLI registers neither its flag nor its config key.
UNREAD = {"run_scenario": ("dims",), "dim_sweep": (), "lambda_sensitivity": ("lambda_grid", "dims"),
          "verify_theorem": ("snr_points_db", "parallelism", "dump_trials", "dims")}


def _resolve(config: RunConfig, run: str) -> ScenarioDefinition:
    """The scenario ``run`` sweeps under ``config``, with each field ``config`` sets in place
    (``dims_list`` holds the dims a dimension sweep runs). ValueError for the first of
    ``UNREAD[run]`` set away from its default, and for SNR points on a fixed-variance (``swept``
    None) scenario, which holds at its own point only; OSError for a file the run writes (its
    :func:`_output_paths`) with no directory to be written into, or that is a directory."""
    for name in UNREAD[run]:
        if getattr(config, name) != getattr(RunConfig, name):  # the class holds the default
            raise ValueError(f"{run} does not read config.{name}; it must keep its default")
    d = config.scenario
    if not isinstance(d, ScenarioDefinition):
        d = scenario_catalog(d, seed=config.master_seed)
    if config.snr_points_db and d.swept is None:
        raise ValueError(f"scenario {d.name!r} has fixed variances and takes no SNR points")
    for path in _output_paths(config):  # output_path first: `.` has no name to derive one from
        if not path.parent.is_dir():
            raise FileNotFoundError(f"no directory to write {config.output_path} into")
        if path.is_dir():
            raise IsADirectoryError(f"cannot write {path}: it is a directory")
    return replace(d, lambda_grid=config.lambda_grid or d.lambda_grid,
                   snr_points_db=config.snr_points_db or d.snr_points_db,
                   dims_list=config.dims or d.dims_list or (d.dims,))


def run_scenario(config: RunConfig) -> list[MetricsRow]:
    """Sweep the scenario's SNR grid; both estimators on every trial.

    Each trial draws fresh (x0, n, Wbar) from its own stream; the correlation
    matrix is built once per run. Writes CSV when output_path is set.
    """
    definition = _resolve(config, "run_scenario")
    m, k = definition.dims
    return _sweep(config, definition, [(m, k, definition.lambda_grid, "", (STREAM_TRIALS,))])


def _first_trial(config: RunConfig) -> tuple[LinearModel, tuple[float, ...]]:
    """The model of trial 0 at the first point of run_scenario(config), and its grid."""
    definition = _resolve(config, "run_scenario")
    m, k = definition.dims
    specs = [definition.specs_at(snr_db) for snr_db in definition.snr_points_db]  # checks all
    spectrum = _correlation_for(definition, m, config.master_seed)
    model = _draw_trial(spectrum, *specs[0], k, config.master_seed, (STREAM_TRIALS, 0, 0))
    return model, definition.lambda_grid


def dim_sweep(config: RunConfig) -> list[MetricsRow]:
    """Scenario-world sweep over a list of (M, K) dimensions."""
    definition = _resolve(config, "dim_sweep")
    return _sweep(config, definition, [(m, k, definition.lambda_grid, "", (STREAM_DIM_SWEEP, i))
                                       for i, (m, k) in enumerate(definition.dims_list)])


def lambda_sensitivity(config: RunConfig) -> list[MetricsRow]:
    """Repeat the scenario sweep for each of the scenario's penalty grids.

    A set ``lambda_grid`` is rejected: the run would not use it. So is a
    scenario without ``lambda_grids`` (catalog entry ``i`` has three).
    """
    definition = _resolve(config, "lambda_sensitivity")
    if not definition.lambda_grids:
        raise ValueError(f"scenario {definition.name!r} has no lambda_grids to compare")
    m, k = definition.dims
    return _sweep(config, definition, [(m, k, grid, _grid_label(grid), (STREAM_SENSITIVITY, i))
                                       for i, grid in enumerate(definition.lambda_grids)])


def verify_theorem(config: RunConfig) -> list[tuple[float, float, float, float]]:
    """Compare the Monte-Carlo mean of the normalized cost to its prediction.

    One design draw is held fixed and factored once (:func:`ridge_costs`:
    ``eigh`` of its Gram when cond(W) < 100, as for every catalog design, else
    a thin SVD); ``config.trials`` (x0, n) pairs are drawn and their realized
    costs are averaged per penalty. Returns rows of (lambda, mc_mean_phi,
    predicted, rel_error). A set ``snr_points_db`` is rejected, as the variances are the
    scenario's own, and so are ``dump_trials``, ``dims`` and a ``parallelism`` other than 1.
    """
    definition = _resolve(config, "verify_theorem")
    m, k = definition.dims
    grid = definition.lambda_grid
    spectrum = _correlation_for(definition, m, config.master_seed)
    signal, noise = definition.specs_at(definition.snr_points_db[0])
    _check_aspect(m, k)
    xi, _ = coefficients_grid(spectrum, k, grid)  # a grid it rejects draws nothing
    wbar = derive_rng(config.master_seed, STREAM_FIXED_DESIGN).standard_normal((m, k))
    design = spectrum.sqrt_apply(wbar)

    def observations():
        for draw in range(config.trials):
            rng = derive_rng(config.master_seed, STREAM_THEOREM_DRAWS, draw)
            x0, n = sample_truth(signal, noise, m, k, rng)
            yield design @ x0 + n

    phi_sums = sum(costs.sum(axis=1) for costs in ridge_costs(design, observations(), grid))
    rows = []
    for lam, mc, predicted in zip(grid, phi_sums / config.trials,
                                  alpha(xi, signal.implied_variance, noise.implied_variance)):
        rel = abs(mc - predicted) / predicted if predicted != 0 else abs(mc)
        rows.append((float(lam), float(mc), float(predicted), float(rel)))
    if config.output_path:
        _write_outputs(config, _table(THEOREM_COLUMNS, rows))
    return rows


def estimate_from_files(y_path, wbar_path, psi_path, lambdas):
    """Estimate the SNR for user-supplied files; returns (estimate, model)."""
    model = dataio.load_model(y_path, wbar_path, psi_path)
    return estimate_snr(model, lambdas), model


# ---------------------------------------------------------------------------
# CSV output

# The columns of the three run tables: a metrics row, a row of the per-trial dump,
# and a verify_theorem row.
METRICS_COLUMNS = tuple(column.name for column in fields(MetricsRow))
TRIAL_COLUMNS = ("snr_true_db", "method", "m", "k", "trial", *REPORTED, "grid_label")
THEOREM_COLUMNS = ("lambda", "mc_mean_phi", "alpha", "rel_error")


def _config_header(config: RunConfig) -> list[str]:
    scenario = config.scenario if isinstance(config.scenario, str) else config.scenario.name
    parts = [
        f"scenario={scenario}",
        f"trials={config.trials}",
        f"seed={config.master_seed}",
    ]
    if config.lambda_grid:
        parts.append("lambdas=" + _grid_label(config.lambda_grid))
    if config.snr_points_db:
        parts.append("snr_points_db=" + _grid_label(config.snr_points_db))
    if config.dims:
        parts.append("dims=" + ";".join(f"{m}x{k}" for m, k in config.dims))
    return [
        "# ridgesnr run",
        "# " + " ".join(parts),
    ]


def _cell(value) -> str:
    """Text of one CSV cell: a float to 12 significant digits (nan, inf, -inf as such), a bool
    as 0/1, else str."""
    if isinstance(value, float):  # np.float64 is a float; tested first, as most cells are
        return f"{value:.12g}"
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    return str(value)


def _table(columns: tuple[str, ...], rows) -> list[str]:
    """Column header and one CSV line per row of values in column order."""
    return [",".join(columns)] + [",".join(map(_cell, row)) for row in rows]


def _metrics_table(rows: list[MetricsRow]) -> list[str]:
    return _table(METRICS_COLUMNS, map(attrgetter(*METRICS_COLUMNS), rows))


def _output_paths(config: RunConfig):
    """The files a run writes: ``output_path``, then with ``dump_trials`` the per-trial CSV beside
    it, <stem>_trials<suffix>."""
    if config.output_path:
        out = Path(config.output_path)
        yield out
        if config.dump_trials:
            yield out.with_name(out.stem + "_trials" + out.suffix)


def _write_outputs(config: RunConfig, *tables: list[str]) -> None:
    """Write each table, under the run's header, to its file of :func:`_output_paths`."""
    for path, table in zip(_output_paths(config), tables):
        path.write_text("\n".join(_config_header(config) + table) + "\n")
