"""Command-line front end.

Subcommands: estimate, scenario, verify-theorem, dim-sweep, lambda-sensitivity.
Exit codes: 0 success, 2 configuration/parse error, 3 numeric convergence or
definiteness failure, 4 I/O error.

Each RunConfig field has one entry in ``_RUN_FIELDS`` (its flag, the ``--config``
JSON type check and the conversion to the field value), and each run subcommand
one in ``_RUNS``. A run subcommand reads every field but those ``harness.UNREAD``
lists for its run. A flag left unset falls back to the config key of the field's
name, then to the subcommand's own default, then to RunConfig's. An unread config
key, a value of the wrong type, or an SNR point that ``specs_at`` rejects exits 2.
"""

from __future__ import annotations

import argparse
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


def _numbers(value) -> bool:
    return type(value) is list and all(type(v) in (int, float) for v in value)


def _floats(values) -> tuple[float, ...] | None:
    return tuple(float(v) for v in values) if values else None


def _as_is(value):
    return value


# RunConfig field -> (its flag, the flag's argparse spec, whether a --config JSON value
# fits the field, and the conversion of a flag or config value to the field value).
# An absent flag parses to None, so a config key can fill the field; a field that
# neither sets keeps its RunConfig default. null fits only where the field may be None.
# A {} in a help text shows the subcommand's default of the field.
_RUN_FIELDS = {
    "trials": (
        "--trials", dict(type=int, help="Monte-Carlo trials per point (default {})"),
        lambda v: type(v) is int, _as_is),
    "master_seed": (
        "--seed", dict(type=int, metavar="SEED", help="master seed (default {})"),
        lambda v: type(v) is int, _as_is),
    "lambda_grid": (
        "--lambdas", dict(type=_parse_lambdas, metavar="LAMBDAS",
                          help="comma-separated penalty grid (default: scenario catalog)"),
        lambda v: v is None or _numbers(v), _floats),
    "snr_points_db": (
        "--snr-db", dict(type=_parse_snr_range, metavar="SNR_DB",
                         help="SNR sweep as a:b:step or comma list (default: scenario catalog)"),
        lambda v: v is None or _numbers(v), _floats),
    "output_path": (
        "--out", dict(metavar="OUT", help="output CSV path"),
        lambda v: v is None or type(v) is str, _as_is),
    # None is auto; a count below 1 is RunConfig's to reject
    "parallelism": (
        "--parallelism", dict(metavar="N|auto", help="worker processes (default {})"),
        lambda v: v in (None, "auto") or type(v) is int,
        lambda v: None if v in (None, "auto") else int(v)),
    "dump_trials": (
        "--dump-trials", dict(action="store_true", default=None,
                              help="also write a per-trial CSV next to --out"),
        lambda v: type(v) is bool, _as_is),
    "dims": (
        "--dims", dict(type=_parse_dims,
                       help="comma-separated MxK pairs (default {})"),
        lambda v: v is None or type(v) is list and all(
            type(p) is list and list(map(type, p)) == [int, int] for p in v),
        lambda v: tuple((m, k) for m, k in v) if v else None),
}


def _add_run_flags(parser: argparse.ArgumentParser, run: str, defaults: dict) -> None:
    """Register the flag of every RunConfig field the harness ``run`` reads (all but
    ``harness.UNREAD[run]``), then --config. A flag parses into ``args.<field>``, and its
    help shows the field's value in ``defaults``, else its RunConfig default."""
    for name, (flag, spec, _, _) in _RUN_FIELDS.items():
        if name not in harness.UNREAD[run]:
            default = defaults.get(name, getattr(harness.RunConfig, name))
            shown = ",".join(f"{m}x{k}" for m, k in default) if name == "dims" else default
            parser.add_argument(flag, dest=name, **{**spec, "help": spec["help"].format(shown)})
    parser.add_argument("--config", help="JSON file with defaults for the flags above")


def _print_metrics(rows) -> None:
    print("\n".join(harness._metrics_table(rows)))


def _print_theorem(rows) -> None:
    print("\n".join(harness._table(harness.THEOREM_COLUMNS, rows)))
    print(f"# max relative error: {max(r[3] for r in rows):.6f}")


# run subcommand -> (harness run, scenario it runs (None: the one its NAME names), the
# RunConfig values it defaults differently, its help, the printer of the run's rows)
_RUNS = {
    "scenario": (harness.run_scenario, None, {}, "run a catalog scenario sweep", _print_metrics),
    "verify-theorem": (harness.verify_theorem, "fig1", {"trials": 200},
                       "Monte-Carlo check of the cost prediction", _print_theorem),
    "dim-sweep": (harness.dim_sweep, "h",
                  {"dims": scenario_catalog("g").dims_list + scenario_catalog("h").dims_list},
                  "dimension-robustness sweep", _print_metrics),
    "lambda-sensitivity": (harness.lambda_sensitivity, "i", {},
                           "penalty-grid sensitivity sweep", _print_metrics),
}


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

    for command, (run, scenario, defaults, text, _) in _RUNS.items():
        p_run = sub.add_parser(command, help=text)
        _add_run_flags(p_run, run.__name__, defaults)
        if scenario is None:  # `scenario` names its catalog entry and may dump a trial
            p_run.add_argument("name", choices=SCENARIO_NAMES)
            p_run.add_argument("--dump", default=None, metavar="DIR",
                               help="write the first trial's model files into DIR")
    return parser


def _resolve_run_config(args: argparse.Namespace) -> harness.RunConfig:
    """Merge CLI flags, the optional JSON config, the subcommand's defaults and RunConfig's."""
    _, scenario, defaults, _, _ = _RUNS[args.command]
    payload = {}
    if getattr(args, "config", None):
        with open(args.config) as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise DataFormatError(f"{args.config}: config must be a JSON object")
    for key, value in payload.items():
        if key not in _RUN_FIELDS or not hasattr(args, key):
            raise DataFormatError(f"{args.config}: {args.command} reads no config key {key!r}")
        if not _RUN_FIELDS[key][2](value):
            raise DataFormatError(f"{args.config}: config key {key!r} has a value of the "
                                  f"wrong type: {value!r}")

    values = {}
    for name, (_, _, _, convert) in _RUN_FIELDS.items():
        if getattr(args, name, None) is not None:
            values[name] = convert(getattr(args, name))
        elif name in payload:
            values[name] = convert(payload[name])
        if values.get(name) is None and name in defaults:  # unset, or null in the config
            values[name] = defaults[name]
    return harness.RunConfig(scenario=scenario or args.name, **values)


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


def _cmd_run(args) -> int:
    run, _, _, _, print_rows = _RUNS[args.command]
    config = _resolve_run_config(args)
    if getattr(args, "dump", None):
        _dump_first_trial(config, args.dump)
    print_rows(run(config))
    return EXIT_OK


def _attach_dash_values(argv) -> list[str]:
    """Join --config or a value-taking run flag to a next token that starts with '-' and
    a digit or '.' ('--snr-db -4:20:2' becomes '--snr-db=-4:20:2'), which argparse would
    otherwise read as an option unless it is a plain number."""
    takes_value = {"--config"} | {flag for flag, spec, _, _ in _RUN_FIELDS.values()
                                  if "action" not in spec}
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
        return (_cmd_estimate if args.command == "estimate" else _cmd_run)(args)
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
