"""Command line interface.

Subcommands: fit, select-bandwidth, region, simulate, bench.  All outputs are
plot-ready CSV plus JSON metadata; nothing is plotted directly.  Exit codes:
0 success, 2 validation failure, 3 numerical failure (degenerate weights or
variance, no events, out of memory), 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bandwidth import _resampling_plan, _select, _validate_boxes, default_covariate_box, default_time_box
from .benchmark import BenchConfig, make_model, run_benchmark, scaling_study, write_report
from .dataio import DatasetSchema, _write_csv, _write_json, filter_subpopulation, load_csv
from .errors import (
    DataValidationError,
    DegenerateVarianceError,
    DegenerateWeightsError,
    EmptyDatasetError,
    InsufficientReplicatesError,
    NoEventsError,
    SchemaError,
    SelectionFailedError,
)
from .estimators import _estimator_bandwidths, beran_survival, kaplan_meier, smoothed_beran_survival
from .regions import _check_alpha, _check_replicates, _region, write_region_csv
from .resampling import resample
from .samples import TimeGrid

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_BUDGET = 4

_VALIDATION_ERRORS = (SchemaError, DataValidationError, EmptyDatasetError, ValueError)
_NUMERICAL_ERRORS = (
    DegenerateWeightsError,
    DegenerateVarianceError,
    NoEventsError,
    InsufficientReplicatesError,
    SelectionFailedError,
    MemoryError,
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise, so they end like any other validation error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _float_list(text: str) -> list[float]:
    # ArgumentTypeError, so the parser's message keeps the reason
    values = [float(part) for part in str(text).split(",") if part != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"invalid number list {text!r}: expected comma-separated numbers")
    if not np.all(np.isfinite(values)):
        raise argparse.ArgumentTypeError(f"invalid number list {text!r}: expected finite numbers")
    return values


def _pair(text: str) -> tuple[float, float]:
    values = _float_list(text)
    if len(values) != 2:
        raise ValueError(f"expected 'low,high', got {text!r}")
    return (values[0], values[1])


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="input CSV path")
    parser.add_argument("--x-col", default="x", help="covariate column name")
    parser.add_argument("--z-col", default="z", help="observed-time column name")
    parser.add_argument("--status-col", default="delta", help="status column name (1=event)")
    parser.add_argument(
        "--filter",
        action="append",
        default=[],
        metavar="COL=VALUE",
        help="keep rows whose factor column equals VALUE; repeatable",
    )
    parser.add_argument("--support", type=_pair, default=None, help="covariate support 'a,b' for boundary reflection")


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-grid", type=int, default=100, help="number of time grid points")
    parser.add_argument(
        "--t-max",
        type=float,
        default=None,
        help="upper end of the time grid (default: 0.95 sample quantile of the times)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="condsurv",
        description="Conditional survival estimation with bootstrap bandwidths and confidence regions.",
    )
    parser.add_argument("--version", action="version", version=f"condsurv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="estimate survival curves on a dataset")
    _add_data_flags(fit)
    _add_grid_flags(fit)
    fit.add_argument("--estimator", choices=["beran", "smoothed-beran", "kaplan-meier"], default="beran")
    fit.add_argument("--x0", type=_float_list, default=[], help="conditioning covariate values, comma separated")
    fit.add_argument("--h", type=float, default=None, help="covariate bandwidth")
    fit.add_argument("--g", type=float, default=None, help="time bandwidth (smoothed estimator)")
    fit.add_argument("--out", required=True, help="output path prefix")

    sel = sub.add_parser("select-bandwidth", help="bootstrap bandwidth selection")
    _add_data_flags(sel)
    _add_grid_flags(sel)
    sel.add_argument("--estimator", choices=["beran", "smoothed-beran"], default="beran")
    sel.add_argument("--x0", type=_float_list, required=True)
    sel.add_argument("--B", type=int, default=500, help="number of bootstrap resamples")
    sel.add_argument("--seed", type=int, required=True)
    sel.add_argument("--c", type=float, default=1.5, help="covariate pilot constant")
    sel.add_argument("--strategy", choices=["grid", "multistart"], default="multistart",
                     help="grid: --grid-size points per axis; multistart: a 16-point mesh refined by 12 zoom levels")
    sel.add_argument("--grid-size", type=int, default=32)
    sel.add_argument("--box", type=_pair, default=None, help="covariate search interval 'low,high'")
    sel.add_argument("--box-g", type=_pair, default=None, help="time search interval 'low,high'")
    sel.add_argument("--out", required=True)

    reg = sub.add_parser("region", help="bootstrap confidence region for the survival curve")
    _add_data_flags(reg)
    _add_grid_flags(reg)
    reg.add_argument("--method", type=int, choices=[1, 2], default=1)
    reg.add_argument("--estimator", choices=["beran", "smoothed-beran"], default="beran")
    reg.add_argument("--x0", type=_float_list, required=True)
    reg.add_argument("--h", type=float, required=True)
    reg.add_argument("--g", type=float, default=None)
    reg.add_argument("--alpha", type=float, default=0.05)
    reg.add_argument("--B", type=int, default=500)
    reg.add_argument("--c", type=float, default=1.5)
    reg.add_argument("--seed", type=int, required=True)
    reg.add_argument("--out", required=True)

    for name, help_text in (
        ("simulate", "desk-scale simulation study on a closed-form model"),
        ("bench", "full-scale offline benchmark (defaults mirror the reference study)"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        full = name == "bench"
        cmd.add_argument("--model", choices=["model1", "model2"], default="model1")
        cmd.add_argument("--censoring", type=float, choices=[0.2, 0.5], default=0.2)
        cmd.add_argument(
            "--mode",
            choices=["bandwidth", "regions", "scaling"] if full else ["bandwidth", "regions"],
            default="bandwidth",
        )
        cmd.add_argument("--estimator", choices=["beran", "smoothed-beran"], default="beran")
        cmd.add_argument("--n", type=int, default=400)
        cmd.add_argument("--n-samples", type=int, default=300 if full else 50, help="number of simulated samples")
        cmd.add_argument("--B", type=int, default=500 if full else 100)
        cmd.add_argument("--n-grid", type=int, default=100)
        cmd.add_argument("--seed", type=int, required=True)
        cmd.add_argument("--strategy", choices=["grid", "multistart"], default="multistart")
        cmd.add_argument("--grid-size", type=int, default=32)
        cmd.add_argument("--alpha", type=float, default=0.05)
        cmd.add_argument("--h", type=float, default=None, help="fixed bandwidth for regions mode")
        cmd.add_argument("--g", type=float, default=None)
        cmd.add_argument("--mise-samples", type=int, default=100)
        cmd.add_argument("--mise-grid", type=int, default=24)
        cmd.add_argument("--workers", type=int, default=1)
        cmd.add_argument("--budget-minutes", type=float, default=None)
        if full:
            cmd.add_argument("--sizes", type=_float_list, default="400,800", help="sample sizes for scaling mode")
        cmd.add_argument("--out", required=True, help="output directory")

    for sub_parser in sub.choices.values():
        sub_parser.add_argument("--config", default=None, help="JSON file whose entries override flags")
        sub_parser.add_argument("--error-json", default=None, help="write a machine-readable error record here on failure")
    return parser


def _config_scalar(action: argparse.Action, value):
    """A config value converted and checked the way the parser treats the flag's text."""
    if isinstance(value, list) and action.type in (_float_list, _pair):
        value = ",".join(str(v) for v in value)
    if value is None or isinstance(value, (bool, list, dict)):
        raise ValueError(f"config entry {action.dest!r} has an invalid value {value!r}")
    try:
        converted = action.type(str(value)) if action.type else str(value)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"config entry {action.dest!r}: {exc}") from None
    if action.choices is not None and converted not in action.choices:
        raise ValueError(f"config entry {action.dest!r} must be one of {list(action.choices)}")
    return converted


def _apply_config_overrides(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError("a config file must hold a JSON object")
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {
        a.dest: a
        for a in commands.choices[args.command]._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r} for {args.command}")
        if isinstance(action, argparse._AppendAction):
            value = [_config_scalar(action, v) for v in (value if isinstance(value, list) else [value])]
        else:
            value = _config_scalar(action, value)
        setattr(args, action.dest, value)


def _load_dataset(args):
    filters: dict = {}
    for item in args.filter:
        if "=" not in item:
            raise ValueError(f"--filter expects COL=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        filters.setdefault(name, set()).add(value)
    schema = DatasetSchema(
        covariate_column=args.x_col,
        time_column=args.z_col,
        status_column=args.status_col,
        filter_columns=tuple(filters),
    )
    dataset = load_csv(args.data, schema)
    if filters:
        dataset = filter_subpopulation(dataset, filters)
    return dataset.sample, sorted((k, sorted(v)) for k, v in filters.items())


def _x0_tag(x0: float) -> str:
    return f"{x0:g}".replace("-", "m").replace(".", "p")


def _x0_stems(out: str, x0s) -> list[str]:
    """The output path stem of each x0; no two values may share one, or one file would be lost."""
    first: dict = {}
    for x0 in x0s:
        tag = _x0_tag(x0)
        if tag in first:
            other = first[tag]
            raise ValueError(f"--x0 value {x0!r} is given twice" if other == x0
                             else f"--x0 values {other!r} and {x0!r} share the output tag {tag!r}")
        first[tag] = x0
    return [f"{out}_x{tag}" for tag in first]


def _prepare(args):
    """The output stems, sample, time grid and run record of fit, select-bandwidth and region.

    The stems and the output directory are checked before the data are read.
    """
    stems = [] if args.estimator == "kaplan-meier" else _x0_stems(args.out, args.x0)
    directory = os.path.dirname(args.out) or "."  # `--out dir/` writes dir/_x...
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"the output directory {directory!r} does not exist")
    sample, filters = _load_dataset(args)
    t_max = float(np.quantile(sample.z, 0.95)) if args.t_max is None else args.t_max
    if t_max <= 0.0:
        raise ValueError("the time grid upper end must be positive")
    grid = TimeGrid.uniform(t_max, args.n_grid)
    record = {"command": args.command, "estimator": args.estimator, "n": sample.n,
              "censoring_fraction": sample.censoring_fraction, "n_grid": grid.n_points, "t_max": grid.t_max,
              "filters": filters, "version": __version__}
    return stems, sample, grid, record


def _cmd_fit(args) -> int:
    if args.estimator != "kaplan-meier":
        h, g = _estimator_bandwidths(args.estimator, args.h, args.g)
        if not args.x0:
            raise ValueError("--x0 is required for covariate-smoothing estimators")
    stems, sample, grid, record = _prepare(args)
    record["seed"] = None
    if args.estimator == "kaplan-meier":
        curve = kaplan_meier(sample, grid)
        _write_csv(f"{args.out}_km.csv", ["t", "s_hat"], zip(grid.points, curve.values))
        _write_json(f"{args.out}_km.json", record | {"h": None, "g": None, "x0": None})
        return EXIT_OK
    for x0, stem in zip(args.x0, stems):
        if g is None:
            curve = beran_survival(sample, x0, h, grid, support=args.support)
        else:
            curve = smoothed_beran_survival(sample, x0, h, g, grid, support=args.support)
        _write_csv(f"{stem}.csv", ["t", "s_hat"], zip(grid.points, curve.values))
        _write_json(f"{stem}.json", record | {"h": h, "g": g, "x0": x0})
    return EXIT_OK


def _cmd_select_bandwidth(args) -> int:
    stems, sample, grid, record = _prepare(args)
    plan = _resampling_plan(args.estimator, sample, args.c, args.seed, args.B)
    boxes = (args.box or default_covariate_box(sample),)
    if args.estimator == "smoothed-beran":
        boxes += (args.box_g or default_time_box(sample),)
    boxes = _validate_boxes(boxes, args.strategy, args.grid_size)
    resamples, diagnostics = resample(sample, plan, args.support)
    record |= {"strategy": args.strategy, "resampling": asdict(diagnostics)}
    selections = _select(sample, args.x0, boxes, plan, grid, args.strategy, args.grid_size, args.support,
                         resamples)
    for x0, stem, selection in zip(args.x0, stems, selections):
        # a shallow copy: asdict would deep-copy every trace entry only to serialize it
        _write_json(f"{stem}.json", vars(selection) | record | {"x0": x0})
    return EXIT_OK


def _cmd_region(args) -> int:
    _estimator_bandwidths(args.estimator, args.h, args.g)
    _check_alpha(args.alpha)
    _check_replicates((args.method,), args.B)
    stems, sample, grid, record = _prepare(args)
    plan = _resampling_plan(args.estimator, sample, args.c, args.seed, args.B)
    resamples, diagnostics = resample(sample, plan, args.support)
    record |= {"B": args.B, "resampling": asdict(diagnostics)}
    regions = _region((args.method,), sample, args.x0, args.h, plan, grid, alpha=args.alpha, g=args.g,
                      estimator=args.estimator, support=args.support, resamples=resamples)[args.method]
    for region, stem in zip(regions, stems):
        write_region_csv(region, f"{stem}.csv", f"{stem}.json", extra=record)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if getattr(args, "mode", None) == "scaling":
        model = make_model(args.model, args.censoring)
        if not all(v >= 1.0 and v.is_integer() for v in args.sizes):
            raise ValueError(f"--sizes expects whole numbers of at least 1, got {args.sizes!r}")
        result = scaling_study(model, args.sizes, args.B, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "timings.json", result)
        return EXIT_OK
    # every field but methods and keep_regions has a flag; three of them under another name
    renamed = {"bandwidth_h": args.h, "bandwidth_g": args.g,
               "budget_seconds": None if args.budget_minutes is None else 60.0 * args.budget_minutes}
    config = BenchConfig(**{f.name: getattr(args, f.name) for f in fields(BenchConfig) if hasattr(args, f.name)},
                         **renamed)
    report = run_benchmark(config)
    write_report(report, args.out)
    return EXIT_BUDGET if report.incomplete else EXIT_OK


_DISPATCH = {
    "fit": _cmd_fit,
    "select-bandwidth": _cmd_select_bandwidth,
    "region": _cmd_region,
    "simulate": _cmd_simulate,
    "bench": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        _apply_config_overrides(parser, args)
        return _DISPATCH[args.command](args)
    except _NUMERICAL_ERRORS as exc:
        return _report_failure(args, argv, exc, EXIT_NUMERICAL)
    except (*_VALIDATION_ERRORS, OSError) as exc:
        return _report_failure(args, argv, exc, EXIT_VALIDATION)


def _report_failure(args, argv, exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    if args is None:  # the command line did not parse: read its --error-json alone
        peek = argparse.ArgumentParser(add_help=False)
        peek.add_argument("--error-json", nargs="?")
        args = peek.parse_known_args(argv)[0]
    if args.error_json:
        record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        if isinstance(exc, DataValidationError) and exc.line_number is not None:
            record["line_number"] = exc.line_number
        try:
            _write_json(args.error_json, record)
        except OSError as write_exc:
            print(f"error: the error record {args.error_json!r} could not be written: {write_exc}", file=sys.stderr)
    return code


def console_main() -> None:
    # condsurv calls no scipy BLAS routine, yet scipy's bundled OpenBLAS, loaded later with ndtri, starts one
    # worker per extra core that spins for about 0.1 s; numpy's BLAS is already loaded and keeps its threads
    if not any(name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(main())


if __name__ == "__main__":
    console_main()
