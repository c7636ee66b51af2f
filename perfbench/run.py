"""Benchmark for ridgesnr: one workload per process, every metric by name.

    python3 perfbench/run.py --workload sweep-tall --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` times the workload and prints the end-to-end metrics; ``--trace
1`` repeats a fixed amount of the same work with and without per-layer
tracing and prints the per-layer metrics. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 when every correctness gate holds, 1 when one fails and 2 when the
package cannot be found.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: on two shared cores the
# default thread pool makes timings spread widely.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import COUNT_UNITS, SITES, Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, Tally  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
# The timed loop stops here even when it has too few samples, so a run ends
# well inside 180 seconds.
TIMED_CAP_S = 120.0

END_TO_END_UNITS = {"setup_s": "s", "op_ms_p95": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in SITES:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms_per_op"] = "ms"
    units.update(COUNT_UNITS)
    units["trace.overhead_ratio"] = "ratio"
    return units


def set_up(workload, seed: int, work: Path) -> float:
    """Import the package afresh and build the workload's inputs; returns seconds.

    The package is dropped from ``sys.modules`` first so its import runs
    again; numpy and scipy stay loaded.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name in [n for n in sys.modules if n == "ridgesnr" or n.startswith("ridgesnr.")]:
        del sys.modules[name]
    start = time.perf_counter()
    rs = importlib.import_module("ridgesnr")
    workload.build(rs, seed, work)
    seconds = time.perf_counter() - start
    if Path(rs.__file__).resolve().parent != SRC / "ridgesnr":
        raise ImportError(f"ridgesnr imported from {rs.__file__}, not from {SRC}")
    return seconds


def timed_run(workload, tally: Tally, seconds: float, size: dict, set_up_once) -> dict:
    """Set-up, gate call (which also warms caches), then timed calls for ``seconds``.

    The set-ups are spread evenly over the timed phase rather than made back to
    back, so their median is not decided by whichever speed the shared host
    happens to run at during one short stretch.
    """
    setups = [set_up_once()]
    workload.gate(tally)
    samples, ops, busy = [], 0, 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= TIMED_CAP_S or (elapsed >= seconds and len(samples) >= size["min_samples"]):
            break
        if len(setups) < size["setups"] and elapsed >= seconds * len(setups) / size["setups"]:
            setups.append(set_up_once())
            continue
        n, call_s = workload.call(len(samples), tally)
        samples.append(call_s * 1e3 / n)
        ops += n
        busy += call_s
    while len(setups) < size["setups"]:
        setups.append(set_up_once())
    workload.finish(tally)
    p95 = float(np.percentile(samples, 95))
    tally.report.update({
        "ops_per_s": ops / busy, "op_ms_p50": float(np.median(samples)),
        "calls": len(samples), "ops_timed": ops, "busy_s": busy,
        "p95_samples_beyond": int(sum(s > p95 for s in samples)),
    })
    return {"setup_s": statistics.median(setups), "op_ms_p95": p95}


def run_pass(calls) -> tuple[float, list]:
    start = time.perf_counter()
    outputs = [call() for call in calls]
    return time.perf_counter() - start, outputs


def traced_run(workload, tally: Tally, seconds: float, spans_path: Path) -> dict:
    """Fixed work, untraced then traced, repeated for ``seconds``.

    Counts come from the first traced pass and must repeat in every later
    one; self times are medians over passes; the overhead is the median ratio
    of traced to untraced operations per second.
    """
    calls, ops = workload.trace_calls()
    tracer = Tracer()
    run_pass(calls)  # warm-up
    counts, self_ms, ratios, identical = None, {}, [], True
    start = time.perf_counter()
    while not ratios or (time.perf_counter() - start < seconds and len(ratios) < 20):
        plain_s, plain_out = run_pass(calls)
        tracer.reset()
        tracer.install()
        try:
            traced_s, traced_out = run_pass(calls)
        finally:
            tracer.uninstall()
        tally.attempted += ops
        if traced_out != plain_out:
            identical = False
            tally.flag("traced outputs differ from untraced outputs", ops)
        metrics = tracer.layer_metrics(ops)
        pass_counts = {k: v for k, v in metrics.items() if not k.endswith(".self_ms_per_op")}
        if counts is None:
            counts = pass_counts
        elif pass_counts != counts:
            tally.flag("per-layer counts differ between two passes of the same work", ops)
        for name, (value, _) in metrics.items():
            if name.endswith(".self_ms_per_op"):
                self_ms.setdefault(name, []).append(value)
        ratios.append(plain_s / traced_s)
    tracer.write(spans_path)
    result = {name: value for name, (value, _) in counts.items()}
    result.update({name: statistics.median(values) for name, values in self_ms.items()})
    result["trace.overhead_ratio"] = statistics.median(ratios)
    tally.report.update({"passes": len(ratios), "ops_per_pass": ops,
                         "absent_layers": tracer.absent(), "outputs_identical": identical,
                         "spans_file": str(spans_path.relative_to(ROOT))})
    return result


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ridgesnr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_version() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return None


def manifest(args, size: dict, tally: Tally) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "size_params": size,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_version(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "ops_attempted": tally.attempted, "ops_failed_in_program": tally.program_failed,
    }


def print_report(args, metrics: dict, units: dict, tally: Tally) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:.6g} {units[name]}")
    if not args.trace:
        ratio = tally.program_failed / tally.attempted
        print(f"  {'fail_ratio':42s} {ratio:.6g} ({tally.program_failed} of "
              f"ops_attempted {tally.attempted})")
    for name, value in tally.report.items():
        print(f"  {name:42s} {value}")
    for problem in tally.problems:
        print(f"  GATE FAILED: {problem}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="fixed work per call; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ridgesnr" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'ridgesnr'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    size = SIZES[args.size]
    workload = WORKLOADS[args.workload](size)
    tally = Tally()
    work = SCRATCH / f"work-{os.getpid()}"
    try:
        if args.trace:
            set_up(workload, args.seed, work)
            spans = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = traced_run(workload, tally, args.seconds, spans)
            units = per_layer_units()
        else:
            metrics = timed_run(workload, tally, args.seconds, size,
                                lambda: set_up(workload, args.seed, work))
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {name: metrics[name] for name in units}
    print_report(args, metrics, units, tally)
    print("manifest " + json.dumps(manifest(args, size, tally), sort_keys=True))
    correct = tally.bad == 0 and all(math.isfinite(v) for v in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": min(tally.bad, tally.attempted),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
