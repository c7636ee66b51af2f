"""Command-line front end.

Subcommands: estimate, scenario, verify-theorem, dim-sweep, lambda-sensitivity.
Exit codes: 0 success, 2 configuration/parse error, 3 numeric convergence or
definiteness failure, 4 I/O error.

Each RunConfig field has its flag in ``_RUN_FIELDS``, and each run subcommand its entry
in ``_RUNS``; a run subcommand reads every field but those ``harness.UNREAD`` lists for
its run. A flag left unset falls back to the config key of the field's name, then to the
subcommand's own default, then to RunConfig's. An unread config key, a value RunConfig
rejects, or an SNR point that ``specs_at`` or ``harness._resolve`` rejects exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace

from . import dataio, estimator, harness
from .exceptions import ConvergenceError, DataFormatError, DefinitenessError, RidgeSnrError
from .scenarios import SCENARIO_NAMES, scenario_catalog

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# Most points an --snr-db a:b:step range may hold; a catalog sweep has 13.
MAX_SNR_POINTS = 10_000


def _parse_lambdas(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad lambda list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty lambda list")
    return values


def _parse_snr_range(text: str) -> tuple[float, ...]:
    """Either 'a:b:step' or a comma-separated list of dB values. A range is a + i step for
    i = 0, 1, ... while within 1e-9 steps of b, each rounded to 9 decimals; it needs finite
    a <= b and step > 0, and holds at most MAX_SNR_POINTS points."""
    try:
        if ":" in text:
            a, b, step = (float(v) for v in text.split(":"))
            if not (all(map(math.isfinite, (a, b, step))) and step > 0 and b >= a):
                raise ValueError
            count = math.floor(min((b - a) / step + 1e-9, MAX_SNR_POINTS)) + 1  # b - a may be inf
            if count > MAX_SNR_POINTS:
                raise ValueError
            return tuple(round(a + i * step, 9) for i in range(count))
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad SNR range: {text!r} (want a:b:step with finite "
                                         f"a <= b and step > 0, at most {MAX_SNR_POINTS} "
                                         f"points, or v1,v2,...)")


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


# RunConfig field -> its flag and the flag's argparse spec; a {} in a help text shows the
# subcommand's default. An absent flag parses to None, so a config key can fill the field.
_RUN_FIELDS = {
    "trials": ("--trials", dict(type=int, help="Monte-Carlo trials per point (default {})")),
    "master_seed": ("--seed", dict(type=int, metavar="SEED", help="master seed (default {})")),
    "lambda_grid": ("--lambdas", dict(type=_parse_lambdas, metavar="LAMBDAS", help="comma-separated"
                                      " penalty grid (default: scenario catalog)")),
    "snr_points_db": ("--snr-db", dict(type=_parse_snr_range, metavar="SNR_DB", help="SNR sweep as "
                                       "a:b:step or comma list (default: scenario catalog)")),
    "output_path": ("--out", dict(metavar="OUT", help="output CSV path")),
    "parallelism": ("--parallelism", dict(metavar="N|auto", help="worker processes (default {})")),
    "dump_trials": ("--dump-trials", dict(action="store_true", default=None,
                                          help="also write a per-trial CSV next to --out")),
    "dims": ("--dims", dict(type=_parse_dims, help="comma-separated MxK pairs (default {})")),
}


def _add_run_flags(parser: argparse.ArgumentParser, run: str, defaults: dict) -> None:
    """Register the flag of every RunConfig field the harness ``run`` reads (all but
    ``harness.UNREAD[run]``), then --config. A flag parses into ``args.<field>``, and its
    help shows the field's value in ``defaults``, else its RunConfig default."""
    for name, (flag, spec) in _RUN_FIELDS.items():
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
    for key in payload:
        if key not in _RUN_FIELDS or not hasattr(args, key):
            raise DataFormatError(f"{args.config}: {args.command} reads no config key {key!r}")
    flags = {name: value for name, value in vars(args).items()
             if name in _RUN_FIELDS and value is not None}
    if payload.get("parallelism") == "auto":  # the config's word for None, as the flag's
        payload["parallelism"] = None
    if "parallelism" in flags:
        text = flags["parallelism"]
        try:
            flags["parallelism"] = None if text == "auto" else int(text)
        except ValueError:
            raise ValueError(f"'parallelism' = {text!r}: not an integer or 'auto'") from None
    # RunConfig checks every config value, with the flags the config does not set (a
    # dump_trials key may take its output_path from --out); a null or empty one leaves the
    # subcommand's default
    config = harness.RunConfig(scenario=scenario or args.name, **{**defaults, **flags, **payload})
    unset = {name: value for name, value in defaults.items() if getattr(config, name) is None}
    return replace(config, **{**unset, **flags})


def _print_estimate(estimate, as_json: bool) -> None:
    if as_json:
        print(dataio._estimate_json(estimate))
        return
    for name in dataio.ESTIMATE_FIELDS:
        value = getattr(estimate, name)
        shown = format(value, ".10g") if isinstance(value, float) else value
        print(f"{name:<17} = {list(shown) if isinstance(shown, tuple) else shown}")


def _dump_first_trial(config: harness.RunConfig, directory: str) -> None:
    """Materialize trial 0 of the first sweep point and write its model files."""
    model, grid = harness._first_trial(config)
    paths = dataio.dump_model(directory, model, grid, estimator.estimate_snr(model, grid))
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
    takes_value = {"--config"} | {flag for flag, spec in _RUN_FIELDS.values()
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
