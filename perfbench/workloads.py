"""The three benchmark workloads and their correctness gates.

Every workload is a closed loop with one client: the next call starts when the
previous one has returned. A workload object is built once per set-up
(``build``), runs a fixed-size gate call at the workload seed (``gate``), then
timed calls (``call``) whose outputs are checked as they arrive and pooled at
the end (``finish``). Only the call into the package is timed; preparing
inputs and checking outputs are not. ``trace_calls`` lists the fixed work
that the traced run repeats with and without tracing.

sweep-tall       ``harness.run_scenario`` on scenario a (80x40, grid 1e-3..4e-3,
                 13 SNR points, parallelism 1); one operation is one trial.
verify-fig1      ``harness.verify_theorem`` at 300x100, 20 penalties from 1e-3
                 to 1e2, one fixed design per call; one operation is one draw.
estimate-square  ``harness.estimate_from_files`` on CSV files, one request per
                 operation, cycling tall 80x40, square 60x60/80x80 at the
                 default grid and square at grid 1e-6..4e-6.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

REFS = Path(__file__).resolve().parent / "refs"

DEFAULT_GRID = (1e-3, 2e-3, 3e-3, 4e-3)
TINY_GRID = (1e-6, 2e-6, 3e-6, 4e-6)

# Fixed work per call, per gate and per traced pass. "tiny" serves the
# benchmark's own tests.
SIZES = {
    "full": {"sweep_trials": 1, "sweep_gate_trials": 40, "sweep_trace_trials": 100,
             "fig1_draws": 10, "fig1_gate_draws": 400, "fig1_trace_draws": 200,
             "square_trace_requests": 12, "min_samples": 200, "setups": 7},
    "tiny": {"sweep_trials": 1, "sweep_gate_trials": 4, "sweep_trace_trials": 2,
             "fig1_draws": 5, "fig1_gate_draws": 20, "fig1_trace_draws": 5,
             "square_trace_requests": 6, "min_samples": 5, "setups": 2},
}

# Criterion-4i bound on the dB-scale mean estimate and criterion-3 bound on
# the prediction's relative error. Both are widened by four standard errors
# of the sample at hand, so the gates hold at any seed and size.
BIAS_DB_BOUND = 0.5
THEOREM_REL_BOUND = 0.02
# Largest per-draw relative standard deviation of the cost over the fig1
# grid (0.153, measured over 300 draws), rounded up.
THEOREM_DRAW_REL_STD = 0.16
DB_PER_REL = 10.0 / math.log(10.0)


@dataclass
class Tally:
    """Outcome counts: ``program_failed`` feeds fail_ratio, ``bad`` the gate."""

    attempted: int = 0
    program_failed: int = 0
    bad: int = 0
    problems: list = field(default_factory=list)
    report: dict = field(default_factory=dict)

    def flag(self, message: str, ops: int = 1) -> None:
        self.bad += ops
        if len(self.problems) < 20:
            self.problems.append(message)


def call_seed(seed: int, index: int) -> int:
    """Master seed of the index-th timed call; the gate call uses ``seed`` itself."""
    return seed * 1_000_003 + 1 + index


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _se(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(values.std(ddof=1) / math.sqrt(values.size)) if values.size >= 2 else math.inf


# ---------------------------------------------------------------------------
# sweep-tall


def sweep_problems(rows, points: int, check_bias: bool) -> list[str]:
    """Row count, failed trials and, optionally, the criterion-4i-style bias bound.

    The bias bound uses each row's own variance, so it is only checked on a
    sweep with enough trials per point for that variance to mean something.
    """
    if len(rows) != 2 * points:
        return [f"expected {2 * points} rows, got {len(rows)}"]
    problems = []
    for row in rows:
        if row.method != "proposed":
            continue
        if row.trials_failed:
            problems.append(f"{row.trials_failed} failed trials at {row.snr_true_db:g} dB")
        valid = row.trials - row.trials_degenerate - row.trials_failed
        if not check_bias or valid < 2 or not math.isfinite(row.norm_err_var):
            continue
        se_db = DB_PER_REL * math.sqrt(row.norm_err_var / valid)
        if not abs(row.bias_db) <= BIAS_DB_BOUND + 4.0 * se_db:
            problems.append(f"bias {row.bias_db:+.3f} dB at {row.snr_true_db:g} dB "
                            f"exceeds {BIAS_DB_BOUND} + 4 x {se_db:.3f}")
    return problems


def csv_matches(csv: bytes, refs: dict, trials: int, seed: int) -> bool | None:
    """Byte-identity against the recorded reference; None when none is recorded."""
    expected = refs.get(str(trials), {}).get(str(seed))
    if expected is None:
        return None
    return hashlib.sha256(csv).hexdigest() == expected


class SweepTall:
    name = "sweep-tall"

    def __init__(self, size: dict):
        self.size = size
        path = REFS / "sweep_tall.json"
        self.refs = json.loads(path.read_text()) if path.exists() else {}

    def build(self, rs, seed: int, work: Path) -> None:
        self.rs, self.seed, self.work = rs, seed, work
        definition = rs.scenario_catalog("a", seed=seed)
        self.points = len(definition.snr_points_db)
        rs.build_correlation(definition.correlation)

    def run(self, master_seed: int, trials: int):
        """One sweep; returns (seconds, rows, metrics CSV bytes)."""
        out = self.work / "sweep.csv"
        config = self.rs.RunConfig(scenario="a", trials=trials, master_seed=master_seed,
                                   parallelism=1, output_path=str(out))
        seconds, rows = timed(self.rs.harness.run_scenario, config)
        return seconds, rows, out.read_bytes()

    def _tally(self, tally: Tally, rows, trials: int, label: str) -> None:
        tally.attempted += trials * self.points
        tally.program_failed += sum(r.trials_failed for r in rows if r.method == "proposed")
        for problem in sweep_problems(rows, self.points, check_bias=label == "gate"):
            tally.flag(f"{label}: {problem}")

    def gate(self, tally: Tally) -> None:
        trials = self.size["sweep_gate_trials"]
        _, rows, csv = self.run(self.seed, trials)
        self._tally(tally, rows, trials, "gate")
        identical = csv_matches(csv, self.refs, trials, self.seed)
        if identical is False:
            tally.flag(f"gate: metrics CSV differs from the reference for seed {self.seed}")
        tally.report["csv_identical"] = identical
        tally.report["nmse_db"] = float(np.mean([r.nmse_db for r in rows if r.method == "proposed"]))
        self.biases: dict[float, list[float]] = {}

    def call(self, index: int, tally: Tally) -> tuple[int, float]:
        trials = self.size["sweep_trials"]
        seconds, rows, _ = self.run(call_seed(self.seed, index), trials)
        self._tally(tally, rows, trials, f"call {index}")
        for row in rows:
            if row.method == "proposed" and math.isfinite(row.bias_db):
                self.biases.setdefault(row.snr_true_db, []).append(row.bias_db)
        return trials * self.points, seconds

    def finish(self, tally: Tally) -> None:
        for snr, biases in self.biases.items():
            bias, se = float(np.mean(biases)), _se(biases)
            if not abs(bias) <= BIAS_DB_BOUND + 4.0 * se:
                tally.flag(f"pooled bias {bias:+.3f} dB at {snr:g} dB exceeds "
                           f"{BIAS_DB_BOUND} + 4 x {se:.3f}")

    def trace_calls(self):
        trials = self.size["sweep_trace_trials"]
        return [lambda: self.run(self.seed, trials)[2]], trials * self.points


# ---------------------------------------------------------------------------
# verify-fig1


def theorem_problems(rows, draws: int) -> list[str]:
    """Row count, finiteness and the criterion-3 bound widened for ``draws``."""
    if len(rows) != 20:
        return [f"expected 20 rows, got {len(rows)}"]
    if not all(math.isfinite(v) and v >= 0 for row in rows for v in row):
        return ["non-finite or negative value in theorem rows"]
    worst = max(row[3] for row in rows)
    bound = THEOREM_REL_BOUND + 4.0 * THEOREM_DRAW_REL_STD / math.sqrt(draws)
    if worst > bound:
        return [f"theorem_rel_err_max {worst:.4f} exceeds {bound:.4f}"]
    return []


class VerifyFig1:
    name = "verify-fig1"

    def __init__(self, size: dict):
        self.size = size

    def build(self, rs, seed: int, work: Path) -> None:
        self.rs, self.seed, self.work = rs, seed, work
        rs.build_correlation(rs.scenario_catalog("fig1", seed=seed).correlation)

    def run(self, master_seed: int, draws: int):
        """One verification; returns (seconds, rows, theorem CSV bytes)."""
        out = self.work / "theorem.csv"
        config = self.rs.RunConfig(scenario="fig1", trials=draws, master_seed=master_seed,
                                   parallelism=1, output_path=str(out))
        seconds, rows = timed(self.rs.harness.verify_theorem, config)
        return seconds, rows, out.read_bytes()

    def gate(self, tally: Tally) -> None:
        draws = self.size["fig1_gate_draws"]
        _, rows, _ = self.run(self.seed, draws)
        tally.attempted += draws
        for problem in theorem_problems(rows, draws):
            tally.flag(f"gate: {problem}", draws)
        tally.report["theorem_rel_err_max"] = max((r[3] for r in rows), default=math.nan)
        self.ratios: list[np.ndarray] = []

    def call(self, index: int, tally: Tally) -> tuple[int, float]:
        draws = self.size["fig1_draws"]
        seconds, rows, _ = self.run(call_seed(self.seed, index), draws)
        tally.attempted += draws
        if len(rows) == 20 and all(math.isfinite(v) and v > 0 for r in rows for v in r[1:3]):
            self.ratios.append(np.array([mc / predicted for _, mc, predicted, _ in rows]))
        else:
            tally.flag(f"call {index}: malformed theorem rows", draws)
        return draws, seconds

    def finish(self, tally: Tally) -> None:
        if len(self.ratios) < 2:
            return
        ratios = np.array(self.ratios)
        err = np.abs(ratios.mean(axis=0) - 1.0)
        se = ratios.std(axis=0, ddof=1) / math.sqrt(len(ratios))
        for i in np.flatnonzero(err > THEOREM_REL_BOUND + 4.0 * se):
            tally.flag(f"pooled relative error {err[i]:.4f} at penalty {i} exceeds "
                       f"{THEOREM_REL_BOUND} + 4 x {se[i]:.4f}")

    def trace_calls(self):
        draws = self.size["fig1_trace_draws"]
        return [lambda: self.run(self.seed, draws)[2]], draws


# ---------------------------------------------------------------------------
# estimate-square

# One cycle of request kinds: (kind, M, K, grid). Square systems at the
# default grid take 1,000-2,000 fixed-point iterations per penalty. At the
# 1e-6 grid the package's fixed-point iteration runs out of budget and raises
# ConvergenceError; that is an allowed outcome for those requests only, and
# it counts toward fail_ratio.
CYCLE = (
    ("tall", 80, 40, DEFAULT_GRID),
    ("square", 60, 60, DEFAULT_GRID),
    ("square-1e-6", 60, 60, TINY_GRID),
    ("tall", 80, 40, DEFAULT_GRID),
    ("square", 80, 80, DEFAULT_GRID),
    ("square-1e-6", 80, 80, TINY_GRID),
)


@dataclass(frozen=True, eq=False)
class Request:
    kind: str
    grid: tuple
    psi: np.ndarray
    wbar: np.ndarray
    y: np.ndarray
    paths: tuple


def make_request(seed: int, index: int, directory: Path) -> Request:
    """Request ``index``: its own exponential correlation, variances and draw.

    Files are written at 17 significant digits, so the package reads exactly
    the values the oracle uses.
    """
    kind, m, k, grid = CYCLE[index % len(CYCLE)]
    rng = np.random.default_rng([seed, index])
    rho = rng.uniform(0.2, 0.6)
    offsets = np.arange(m, dtype=float)
    psi = rho ** ((offsets[:, None] - offsets[None, :]) ** 2)
    q, basis = np.linalg.eigh(psi)
    root = (basis * np.sqrt(np.clip(q, 0.0, None))) @ basis.T
    sigma_x2 = rng.uniform(0.5, 2.0)
    sigma_n2 = sigma_x2 * 10.0 ** (-rng.uniform(0.0, 20.0) / 10.0)
    wbar = rng.standard_normal((m, k))
    y = root @ wbar @ rng.normal(0.0, math.sqrt(sigma_x2), k) + rng.normal(0.0, math.sqrt(sigma_n2), m)
    directory.mkdir(parents=True, exist_ok=True)
    paths = tuple(str(directory / name) for name in ("y.csv", "wbar.csv", "psi.csv"))
    for path, data in zip(paths, (y[:, None], wbar, psi)):
        np.savetxt(path, data, fmt="%.17g", delimiter=",")
    return Request(kind=kind, grid=grid, psi=psi, wbar=wbar, y=y, paths=paths)


class EstimateSquare:
    name = "estimate-square"

    def __init__(self, size: dict):
        self.size = size

    def build(self, rs, seed: int, work: Path) -> None:
        """Writes the first cycle of request files."""
        self.rs, self.seed, self.work = rs, seed, work
        self.first = [make_request(seed, i, work / f"request{i}") for i in range(len(CYCLE))]

    def request(self, index: int) -> Request:
        if index < len(self.first):
            return self.first[index]
        return make_request(self.seed, index, self.work / "request")

    def run(self, request: Request):
        """One request; returns (seconds, estimate or the RidgeSnrError raised)."""
        start = time.perf_counter()
        try:
            estimate, _ = self.rs.harness.estimate_from_files(*request.paths, request.grid)
        except self.rs.RidgeSnrError as exc:
            return time.perf_counter() - start, exc
        return time.perf_counter() - start, estimate

    def check(self, index: int, request: Request, outcome, tally: Tally) -> None:
        tally.attempted += 1
        if isinstance(outcome, Exception):
            tally.program_failed += 1
            if not (request.kind == "square-1e-6" and isinstance(outcome, self.rs.ConvergenceError)):
                tally.flag(f"request {index} ({request.kind}): {type(outcome).__name__}: {outcome}")
            return
        reference = oracle.estimate(request.psi, request.wbar, request.y, request.grid)
        sigma = (outcome.sigma_x2_hat, outcome.sigma_n2_hat)
        if not oracle.agrees(sigma, reference):
            tally.flag(f"request {index} ({request.kind}): estimate {sigma} "
                       f"!= oracle {tuple(reference)}")

    def gate(self, tally: Tally) -> None:
        for index, request in enumerate(self.first):
            self.check(index, request, self.run(request)[1], tally)

    def call(self, index: int, tally: Tally) -> tuple[int, float]:
        request = self.request(len(self.first) + index)
        seconds, outcome = self.run(request)
        self.check(len(self.first) + index, request, outcome, tally)
        return 1, seconds

    def finish(self, tally: Tally) -> None:
        pass

    def trace_calls(self):
        def one(request):
            outcome = self.run(request)[1]
            if isinstance(outcome, Exception):
                return type(outcome).__name__
            return outcome.sigma_x2_hat, outcome.sigma_n2_hat
        count = self.size["square_trace_requests"]
        requests = [self.request(i) if i < len(self.first)
                    else make_request(self.seed, i, self.work / f"trace{i}") for i in range(count)]
        return [lambda r=r: one(r) for r in requests], count


WORKLOADS = {cls.name: cls for cls in (SweepTall, VerifyFig1, EstimateSquare)}
