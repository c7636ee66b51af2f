"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import SITES, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def last_json(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = last_json(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "fail_ratio" in done.stdout and "ops_attempted" in done.stdout


def test_estimate_square_keeps_failing_requests():
    done = run_bench("estimate-square", 0)
    manifest = json.loads(next(line for line in done.stdout.splitlines()
                               if line.startswith("manifest "))[len("manifest "):])
    assert manifest["ops_failed_in_program"] > 0
    assert manifest["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_layer_counts_repeat_across_runs(workload):
    first, second = (last_json(run_bench(workload, 1))["metrics"] for _ in range(2))
    counts = [name for name in first if not name.endswith("_ms_per_op") and name != "trace.overhead_ratio"]
    assert any(name.endswith(".iters") for name in counts)
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("sweep-tall", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ---------------------------------------------------------------------------
# Each gate trips on a perturbed result.


@pytest.fixture(scope="module")
def sweep_rows():
    import ridgesnr

    return ridgesnr.run_scenario(ridgesnr.RunConfig(scenario="a", trials=40, master_seed=0))


def test_sweep_gate_accepts_real_rows(sweep_rows):
    assert workloads.sweep_problems(sweep_rows, 13, check_bias=True) == []


def test_sweep_gate_trips_on_biased_row(sweep_rows):
    rows = list(sweep_rows)
    rows[0] = replace(rows[0], bias_db=rows[0].bias_db + 3.0)
    assert workloads.sweep_problems(rows, 13, check_bias=True)


def test_sweep_gate_trips_on_failed_trials(sweep_rows):
    rows = list(sweep_rows)
    rows[2] = replace(rows[2], trials_failed=1)
    assert workloads.sweep_problems(rows, 13, check_bias=False)


def test_sweep_gate_trips_on_changed_csv():
    csv = b"# ridgesnr run\n"
    refs = {"40": {"0": hashlib.sha256(csv).hexdigest()}}
    assert workloads.csv_matches(csv, refs, 40, 0) is True
    assert workloads.csv_matches(csv + b" ", refs, 40, 0) is False
    assert workloads.csv_matches(csv, refs, 40, 1) is None
    assert "0" in workloads.SweepTall(workloads.SIZES["full"]).refs["40"]


def test_theorem_gate():
    rows = [(lam, 1.0, 1.0, 0.001) for lam in np.logspace(-3, 2, 20)]
    assert workloads.theorem_problems(rows, 400) == []
    assert workloads.theorem_problems(rows[:19], 400)
    rows[7] = (rows[7][0], 1.2, 1.0, 0.2)
    assert workloads.theorem_problems(rows, 400)


@pytest.mark.parametrize("index", [0, 1])
def test_oracle_agrees_with_package_and_trips_on_perturbation(index, tmp_path):
    import ridgesnr

    request = workloads.make_request(3, index, tmp_path)
    estimate, _ = ridgesnr.estimate_from_files(*request.paths, request.grid)
    reference = oracle.estimate(request.psi, request.wbar, request.y, request.grid)
    sigma = np.array([estimate.sigma_x2_hat, estimate.sigma_n2_hat])
    assert oracle.agrees(sigma, reference)
    assert not oracle.agrees(sigma * (1 + 1e-3), reference)


def test_estimate_gate_flags_unexpected_error(tmp_path):
    import ridgesnr

    bench = workloads.EstimateSquare(workloads.SIZES["tiny"])
    bench.rs = ridgesnr
    tally = workloads.Tally()
    tall, tiny = (workloads.make_request(0, i, tmp_path / str(i)) for i in (0, 2))
    bench.check(2, tiny, ridgesnr.ConvergenceError("budget"), tally)
    assert (tally.program_failed, tally.bad) == (1, 0)
    bench.check(0, tall, ridgesnr.ConvergenceError("budget"), tally)
    assert (tally.program_failed, tally.bad) == (2, 1)


# ---------------------------------------------------------------------------
# Tracing


def test_tracer_tolerates_removed_names():
    import ridgesnr.rmt

    sites = dict(SITES)
    sites["rmt.removed"] = ("ridgesnr.rmt:no_such_function",)
    sites["gone.module"] = ("ridgesnr.no_such_module:f",)
    original = ridgesnr.rmt.solve_delta
    tracer = Tracer(sites)
    tracer.install()
    try:
        assert ridgesnr.rmt.solve_delta is not original
        ridgesnr.run_scenario(ridgesnr.RunConfig(scenario="a", trials=1, master_seed=0))
    finally:
        tracer.uninstall()
    assert ridgesnr.rmt.solve_delta is original
    assert sorted(tracer.absent()) == ["gone.module", "rmt.removed"]
    metrics = tracer.layer_metrics(13)
    assert metrics["rmt.removed.calls"] == (0, "count")
    assert metrics["rmt.coefficients.calls"][0] == 52
    assert metrics["rmt.coefficients.unique_ratio"][0] == pytest.approx(4 / 52)


def test_self_time_excludes_children():
    tracer = Tracer({})
    tracer.spans.extend([["a", 0, 100, -1, 0], ["b", 10, 40, 0, 0], ["c", 50, 60, 0, 0],
                         ["d", 20, 30, 1, 0]])
    assert tracer.self_times_ns() == [60, 20, 10, 10]
