"""Per-layer tracing from outside the package.

Each layer is a public function, wrapped at every name its callers look it up
by (``module:attribute``). A call through a wrapped name records a span
(layer, start, end, parent) in memory; self time is a span's duration minus
the time its child spans cover. A few layers also record counts at the same
boundary: fixed-point iterations, distinct coefficient keys, distinct designs,
flops computed from matrix sizes and bytes read from input files.

A name that no longer exists is skipped, and a layer left with no names is
reported as absent with zero calls, so the benchmark keeps running when a
later version of the package removes or renames a function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

# Layer -> the names its callers look it up by.
SITES: dict[str, tuple[str, ...]] = {
    "harness": ("ridgesnr.harness:run_scenario", "ridgesnr.harness:verify_theorem",
                "ridgesnr.harness:estimate_from_files"),
    "scenarios.sample_truth": ("ridgesnr.harness:sample_truth",),
    "scenarios.synthesize": ("ridgesnr.harness:synthesize",),
    "scenarios.build_correlation": ("ridgesnr.harness:build_correlation",),
    "estimator.estimate_snr": ("ridgesnr.harness:estimate_snr",),
    "estimator.ridge_solve": ("ridgesnr.estimator:ridge_solve", "ridgesnr.harness:ridge_solve"),
    "estimator.solve_system": ("ridgesnr.estimator:solve_system",),
    "estimator.ml_baseline": ("ridgesnr.harness:ml_baseline",),
    "rmt.coefficients": ("ridgesnr.estimator:coefficients", "ridgesnr.harness:coefficients"),
    "rmt.solve_delta": ("ridgesnr.rmt:solve_delta",),
    "numerics.spd_solve": ("ridgesnr.estimator:spd_solve",),
    "numerics.nnls_2var": ("ridgesnr.estimator:nnls_2var",),
    "numerics.sym_eig": ("ridgesnr.rmt:sym_eig",),
    "dataio.load_model": ("ridgesnr.dataio:load_model",),
}

# Extra per-layer metrics: name -> unit. The values are filled in by the
# counters below.
COUNT_UNITS = {
    "rmt.solve_delta.iters": "count",
    "rmt.solve_delta.iters_max": "count",
    "rmt.coefficients.unique_ratio": "ratio",
    "estimator.ridge_solve.design_reuse": "calls/design",
    "numerics.spd_solve.gflop_computed": "GFLOP",
    "dataio.bytes_read": "bytes",
}


def _fingerprint(array) -> tuple:
    """Cheap content key for a large random array: shape plus a strided sample."""
    flat = array.ravel()
    return (array.shape, flat[:: max(1, flat.size // 64)].tobytes())


@dataclass
class Counters:
    """Counts recorded at layer boundaries; all are functions of sizes and inputs."""

    delta_iters: int = 0
    delta_iters_max: int = 0
    coefficient_keys: set = field(default_factory=set)
    designs: set = field(default_factory=set)
    spd_flops: float = 0.0
    bytes_read: int = 0

    def record(self, layer: str, arguments: dict, result, error) -> None:
        if layer == "rmt.solve_delta":
            if error is None and isinstance(result, tuple) and len(result) == 2:
                iters = int(result[1])
            elif error is not None and "max_iter" in arguments:
                iters = int(arguments["max_iter"])
            else:
                return
            self.delta_iters += iters
            self.delta_iters_max = max(self.delta_iters_max, iters)
        elif layer == "rmt.coefficients" and "spectrum" in arguments:
            spectrum = arguments["spectrum"]
            self.coefficient_keys.add((_fingerprint(spectrum.eigenvalues), arguments.get("M"),
                                       arguments.get("K"), float(arguments.get("lam", 0.0))))
        elif layer == "estimator.ridge_solve" and "model" in arguments:
            self.designs.add(_fingerprint(arguments["model"].design))
        elif layer == "numerics.spd_solve" and "a" in arguments:
            n = arguments["a"].shape[0]
            b = arguments.get("b")
            rhs = 1 if b is None or b.ndim == 1 else b.shape[1]
            self.spd_flops += n ** 3 / 3.0 + 2.0 * n * n * rhs
        elif layer == "dataio.load_model":
            self.bytes_read += sum(os.path.getsize(p) for p in arguments.values()
                                   if isinstance(p, (str, os.PathLike)))


class Tracer:
    """Wraps the layer sites of an imported ``ridgesnr`` and records spans.

    ``install`` patches the module attributes; ``uninstall`` restores them.
    Spans are (layer, start_ns, end_ns, parent_index, op) rows kept in memory.
    """

    def __init__(self, sites: dict[str, tuple[str, ...]] = SITES):
        self.sites = sites
        self.spans: list[list] = []
        self.counters = Counters()
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.present: set[str] = set()

    def install(self) -> None:
        for layer, names in self.sites.items():
            for site in names:
                module_name, attr = site.split(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None or not callable(original):
                    continue
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))
                self.present.add(layer)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters = Counters()
        self.op = 0

    def _wrap(self, layer: str, original):
        try:
            signature = inspect.signature(original)
        except (TypeError, ValueError):
            signature = None
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [layer, clock(), 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            result = error = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if signature is not None:
                    try:
                        bound = signature.bind(*args, **kwargs)
                    except TypeError:
                        pass
                    else:
                        bound.apply_defaults()
                        self.counters.record(layer, bound.arguments, result, error)

        return wrapper

    def self_times_ns(self) -> list[int]:
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer ``.calls`` and ``.self_ms_per_op`` plus the boundary counts."""
        calls = {layer: 0 for layer in self.sites}
        self_ns = {layer: 0 for layer in self.sites}
        for span, own in zip(self.spans, self.self_times_ns()):
            calls[span[0]] += 1
            self_ns[span[0]] += own
        metrics: dict[str, tuple[float, str]] = {}
        for layer in self.sites:
            metrics[f"{layer}.calls"] = (calls[layer], "count")
            metrics[f"{layer}.self_ms_per_op"] = (self_ns[layer] / 1e6 / ops, "ms")
        c = self.counters
        coefficient_calls = calls.get("rmt.coefficients", 0)
        ridge_calls = calls.get("estimator.ridge_solve", 0)
        values = {
            "rmt.solve_delta.iters": c.delta_iters,
            "rmt.solve_delta.iters_max": c.delta_iters_max,
            "rmt.coefficients.unique_ratio":
                len(c.coefficient_keys) / coefficient_calls if coefficient_calls else 0.0,
            "estimator.ridge_solve.design_reuse":
                ridge_calls / len(c.designs) if c.designs else 0.0,
            "numerics.spd_solve.gflop_computed": c.spd_flops / 1e9,
            "dataio.bytes_read": c.bytes_read,
        }
        for name, unit in COUNT_UNITS.items():
            metrics[name] = (values[name], unit)
        return metrics

    def absent(self) -> list[str]:
        return [layer for layer in self.sites if layer not in self.present]

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: layer, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
