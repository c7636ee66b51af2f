"""Command-line front end.

Subcommands: estimate, scenario, verify-theorem, dim-sweep, lambda-sensitivity.
Exit codes: 0 success, 2 configuration/parse error, 3 numeric convergence or
definiteness failure, 4 I/O error.

Run flags left unset fall back first to the optional ``--config`` JSON file
(keys mirror RunConfig field names) and then to built-in defaults. A config
key the subcommand does not read, or a value of the wrong type, exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

from . import dataio, harness
from .exceptions import ConvergenceError, DataFormatError, DefinitenessError, RidgeSnrError
from .scenarios import SCENARIO_NAMES, scenario_catalog

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _parse_lambdas(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad lambda list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty lambda list")
    return values


def _parse_snr_range(text: str) -> tuple[float, ...]:
    """Either 'a:b:step' (inclusive) or a comma-separated list of dB values."""
    try:
        if ":" in text:
            a, b, step = (float(v) for v in text.split(":"))
            if step <= 0 or b < a:
                raise ValueError
            points = []
            v = a
            while v <= b + 1e-9:
                points.append(round(v, 9))
                v += step
            return tuple(points)
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad SNR range: {text!r} (want a:b:step or v1,v2,...)")


def _parse_dims(text: str) -> tuple[tuple[int, int], ...]:
    """Comma-separated MxK pairs, e.g. 31x30,30x35."""
    dims = []
    for token in text.split(","):
        try:
            m, k = token.lower().split("x")
            dims.append((int(m), int(k)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad dims token: {token!r} (want MxK)")
    return tuple(dims)


# Every run flag; an absent flag parses to None so the --config file can fill it.
_RUN_FLAGS = {
    "--trials": dict(type=int,
                     help="Monte-Carlo trials per point (default 1000; 200 for verify-theorem)"),
    "--seed": dict(type=int, help="master seed (default 0)"),
    "--lambdas": dict(type=_parse_lambdas,
                      help="comma-separated penalty grid (default: scenario catalog)"),
    "--snr-db": dict(type=_parse_snr_range,
                     help="SNR sweep as a:b:step or comma list (default: scenario catalog)"),
    "--out": dict(help="output CSV path"),
    "--parallelism": dict(metavar="N|auto", help="worker processes (default 1)"),
    "--dump-trials": dict(action="store_true", default=None,
                          help="also write a per-trial CSV next to --out"),
    "--config": dict(help="JSON file with defaults for the flags above"),
}


def _numbers(value) -> bool:
    return type(value) is list and all(type(v) in (int, float) for v in value)


# --config key (a RunConfig field) -> (the run flag it stands in for, whether a JSON
# value fits the field); null fits only where the field may be None.
_CONFIG_KEYS = {
    "trials": ("trials", lambda v: type(v) is int),
    "master_seed": ("seed", lambda v: type(v) is int),
    "lambda_grid": ("lambdas", lambda v: v is None or _numbers(v)),
    "snr_points_db": ("snr_db", lambda v: v is None or _numbers(v)),
    "output_path": ("out", lambda v: v is None or type(v) is str),
    "parallelism": ("parallelism", lambda v: v in (None, "auto") or type(v) is int),
    "dump_trials": ("dump_trials", lambda v: type(v) is bool),
    "dims": ("dims", lambda v: v is None or type(v) is list and all(
        type(p) is list and list(map(type, p)) == [int, int] for p in v)),
}


def _add_run_flags(parser: argparse.ArgumentParser, *unread: str) -> None:
    """Register every run flag except the ``unread`` ones, which the subcommand ignores."""
    for flag, spec in _RUN_FLAGS.items():
        if flag not in unread:
            parser.add_argument(flag, **spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ridgesnr",
                                     description="Blind SNR estimation benchmarks and tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate SNR from y / Wbar / Psi files")
    p_est.add_argument("y_path")
    p_est.add_argument("wbar_path")
    p_est.add_argument("psi_path")
    p_est.add_argument("--lambdas", type=_parse_lambdas, required=True)
    p_est.add_argument("--json", action="store_true", help="machine-readable output only")

    p_sc = sub.add_parser("scenario", help="run a catalog scenario sweep")
    p_sc.add_argument("name", choices=SCENARIO_NAMES)
    _add_run_flags(p_sc)
    p_sc.add_argument("--dump", default=None, metavar="DIR",
                      help="write the first trial's model files into DIR")

    p_vt = sub.add_parser("verify-theorem", help="Monte-Carlo check of the cost prediction")
    _add_run_flags(p_vt, "--snr-db", "--parallelism", "--dump-trials")

    p_ds = sub.add_parser("dim-sweep", help="dimension-robustness sweep")
    _add_run_flags(p_ds)
    p_ds.add_argument("--dims", type=_parse_dims, default=None,
                      help="comma-separated MxK pairs (default: catalog g+h dims)")

    p_ls = sub.add_parser("lambda-sensitivity", help="penalty-grid sensitivity sweep")
    _add_run_flags(p_ls, "--lambdas")
    return parser


def _coerce_parallelism(value) -> int | None:
    """None for auto; RunConfig rejects a count below 1."""
    return None if value is None or value == "auto" else int(value)


def _resolve_run_config(args: argparse.Namespace, scenario: str,
                        default_trials: int = 1000) -> harness.RunConfig:
    """Merge CLI flags, the optional JSON config, and built-in defaults."""
    payload = {}
    if getattr(args, "config", None):
        with open(args.config) as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise DataFormatError(f"{args.config}: config must be a JSON object")
    for key, value in payload.items():
        if key not in _CONFIG_KEYS or not hasattr(args, _CONFIG_KEYS[key][0]):
            raise DataFormatError(f"{args.config}: {args.command} reads no config key {key!r}")
        if not _CONFIG_KEYS[key][1](value):
            raise DataFormatError(f"{args.config}: config key {key!r} has a value of the "
                                  f"wrong type: {value!r}")

    def pick(key, fallback=None):
        value = getattr(args, _CONFIG_KEYS[key][0], None)
        return payload.get(key, fallback) if value is None else value

    lambdas = pick("lambda_grid")
    snr_points = pick("snr_points_db")
    dims = pick("dims")
    return harness.RunConfig(
        scenario=scenario,
        trials=pick("trials", default_trials),
        master_seed=pick("master_seed", 0),
        lambda_grid=tuple(float(v) for v in lambdas) if lambdas else None,
        snr_points_db=tuple(float(v) for v in snr_points) if snr_points else None,
        output_path=pick("output_path"),
        parallelism=_coerce_parallelism(pick("parallelism", 1)),
        dump_trials=pick("dump_trials", False),
        dims=tuple((m, k) for m, k in dims) if dims else None,
    )


def _print_estimate(estimate, as_json: bool) -> None:
    if as_json:
        print(json.dumps({**dataio._estimate_json(estimate),
                          "fit_residual_norm": estimate.fit_residual_norm,
                          "fixed_point_iters": list(estimate.fixed_point_iters)}))
        return
    print(f"sigma_x2_hat      = {estimate.sigma_x2_hat:.10g}")
    print(f"sigma_n2_hat      = {estimate.sigma_n2_hat:.10g}")
    print(f"snr_linear        = {estimate.snr_linear:.10g}")
    print(f"snr_db            = {estimate.snr_db:.10g}")
    print(f"degenerate        = {estimate.degenerate}")
    print(f"fit residual norm = {estimate.fit_residual_norm:.4g}")
    print(f"fixed-point iters = {list(estimate.fixed_point_iters)}")


def _dump_first_trial(config: harness.RunConfig, directory: str) -> None:
    """Materialize trial 0 of the first sweep point and write its model files."""
    from .estimator import estimate_snr

    model, grid = harness._first_trial(config)
    paths = dataio.dump_model(directory, model, grid, estimate_snr(model, grid))
    print(f"dumped model files: {json.dumps(paths)}")


def _cmd_estimate(args) -> int:
    estimate, _ = harness.estimate_from_files(args.y_path, args.wbar_path,
                                              args.psi_path, args.lambdas)
    _print_estimate(estimate, args.json)
    return EXIT_OK


def _cmd_scenario(args) -> int:
    config = _resolve_run_config(args, args.name)
    if args.dump:
        _dump_first_trial(config, args.dump)
    rows = harness.run_scenario(config)
    print("\n".join(harness._table(harness.MetricsRow, rows)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = _resolve_run_config(args, "fig1", default_trials=200)
    rows = harness.verify_theorem(config)
    print("\n".join(harness._theorem_table(rows)))
    print(f"# max relative error: {max(r[3] for r in rows):.6f}")
    return EXIT_OK


def _cmd_dim_sweep(args) -> int:
    config = _resolve_run_config(args, "h")
    if config.dims is None:
        dims = scenario_catalog("g").dims_list + scenario_catalog("h").dims_list
        config = dataclasses.replace(config, dims=dims)
    rows = harness.dim_sweep(config)
    print("\n".join(harness._table(harness.MetricsRow, rows)))
    return EXIT_OK


def _cmd_lambda_sensitivity(args) -> int:
    config = _resolve_run_config(args, "i")
    rows = harness.lambda_sensitivity(config)
    print("\n".join(harness._table(harness.MetricsRow, rows)))
    return EXIT_OK


def _attach_dash_values(argv) -> list[str]:
    """Join each value-taking run flag to a next token that starts with '-' and a digit
    or '.' ('--snr-db -4:20:2' becomes '--snr-db=-4:20:2'), which argparse would
    otherwise read as an option unless it is a plain number."""
    takes_value = {flag for flag, spec in _RUN_FLAGS.items() if "action" not in spec} | {"--dims"}
    joined = []
    for token in argv:
        if joined and joined[-1] in takes_value and re.match(r"-[\d.]", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        handler = {
            "estimate": _cmd_estimate,
            "scenario": _cmd_scenario,
            "verify-theorem": _cmd_verify,
            "dim-sweep": _cmd_dim_sweep,
            "lambda-sensitivity": _cmd_lambda_sensitivity,
        }[args.command]
        return handler(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, DefinitenessError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (RidgeSnrError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
