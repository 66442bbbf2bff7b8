"""Command line front end.

Subcommands:
    tune     offline gain tuning from a recorded closed-loop CSV
    run      execute a scenario JSON, write trace CSV + summary JSON
             (the summary includes the simulation's wall_s and step_us)
    compare  compare estimator methods over seeded trials, and over --mu if given

Exit codes: 0 success, 2 configuration error, 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path

from .adaptive import NumericalBreakdownError
from .frit import ClosedLoopDataset, UnstableInverseWarning, batch_tune, frit_cost
from .harness import (
    ESTIMATOR_MODES,
    ConfigError,
    GmSpec,
    ScenarioConfig,
    _variant,
    compare_methods,
    method_variants,
    run_scenario,
)
from .lti import ReferenceModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _check_paths(reads, writes, made: Path | None = None) -> None:
    """Before any work, refuse an output (flag, path) that is a directory, has no directory
    to go in (`made`, created first, counts) or is an input or another output."""
    real = os.path.realpath  # unlike Path.resolve on Python 3.11, no error on a symlink loop
    if made is not None:
        existing = next(p for p in (made, *made.absolute().parents) if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"--out {made}: {existing} is not a directory")
    seen = {real(path): f"{flag} {path}" for flag, path in reads}
    for flag, path in ((flag, Path(p)) for flag, p in writes if p is not None):
        where = f"{flag} {path}"
        if path.is_dir():
            raise IsADirectoryError(f"{where} is a directory")
        if not (path.parent.is_dir() or made and real(path.parent) == real(made)):
            raise FileNotFoundError(f"{where}: no directory {path.parent}")
        same = seen.setdefault(real(path), where)
        if same is not where:
            raise ValueError(f"{where} is the same file as {same}")


def _cmd_tune(args) -> int:
    _check_paths([("dataset", args.dataset)], [("--out", args.out)])
    data = ClosedLoopDataset.load(args.dataset)
    gm = ReferenceModel.first_order(data.ts, tau=args.gm_tau, dc_gain=args.gm_dc_gain,
                                    discretization="zoh" if args.exact_zoh else "euler")
    theta = batch_tune(data, gm)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UnstableInverseWarning)
        cost = frit_cost(theta, data, gm)
    for w in caught:  # one worded line, not the file, line and source of the warning
        print(f"warning: {w.message}", file=sys.stderr)
    print(f"kp = {theta[0]:.6g}")
    print(f"ki = {theta[1]:.6g}")
    print(f"kd = {theta[2]:.6g}")
    print(f"model-reference cost = {cost:.6g}")
    if args.out:
        _write_json(Path(args.out), {"theta0": [float(x) for x in theta],
                                     "cost": cost if math.isfinite(cost) else None})
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = ScenarioConfig.from_json(args.scenario)
    if cfg.name in (".", "..") or Path(cfg.name).name != cfg.name:
        raise ConfigError(f"scenario name {cfg.name!r} must be a plain file name")
    outdir = Path(args.out)
    trace_path = outdir / f"{cfg.name}_trace.csv"
    summary_path = outdir / f"{cfg.name}_summary.json"
    writes = [("--out", trace_path), ("--out", summary_path)]
    if args.save_dataset is not None:
        if round(cfg.duration / cfg.ts) < 2:  # the steps of the run, as run_scenario counts
            raise ConfigError(f"--save-dataset needs a run of 2 steps or more: {args.scenario}")
        writes.append(("--save-dataset", args.save_dataset))
    _check_paths([("scenario", args.scenario)], writes, made=outdir)
    t0 = time.perf_counter()
    trace = run_scenario(cfg, seed=args.seed)
    wall_s = time.perf_counter() - t0
    outdir.mkdir(parents=True, exist_ok=True)
    trace.save_csv(trace_path)
    summary = trace.summary()
    # the cost of the simulation alone: no scenario load, no file writes
    summary["wall_s"] = wall_s
    summary["step_us"] = wall_s / len(trace) * 1e6
    _write_json(summary_path, summary)
    if args.save_dataset is not None:
        ClosedLoopDataset(
            u0=trace["u"], y0=trace["y"], r=trace["r"], ts=cfg.ts
        ).save(args.save_dataset)
    print(f"trace: {trace_path}")
    print(f"MAE = {summary['mae']:.6g}, maxAE = {summary['max_ae']:.6g}")
    return EXIT_OK


def _write_json(path: Path, value) -> None:
    """`value` as indented JSON with sorted keys.  A NaN or an infinity raises
    ValueError rather than being written as a token that is not JSON."""
    path.write_text(json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _report(rows: list[dict], args) -> int:
    """Print a table of rows, and write it to --out in --format if given."""
    keys = list(rows[0].keys())
    widths = {k: max(len(k), *(len(_fmt(r[k])) for r in rows)) for k in keys}
    print("  ".join(k.ljust(widths[k]) for k in keys))
    for r in rows:
        print("  ".join(_fmt(r[k]).ljust(widths[k]) for k in keys))
    if args.out and args.format == "json":
        _write_json(Path(args.out), rows)
    elif args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            writer.writerows(rows)
    return EXIT_OK


def _fmt(v) -> str:
    return f"{v:.5g}" if isinstance(v, float) else str(v)


def _cmd_compare(args) -> int:
    path = Path(args.scenario)
    paths = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not paths:
        raise ConfigError(f"no scenario JSON files in {path}")
    methods = args.methods.split(",")
    # every file loads, and every variant is checked, before the first run
    bases = [ScenarioConfig.from_json(p) for p in paths]
    if args.mu is not None:
        mus = _forgetting_factors(args.mu)
        bases = [_variant(base, f"mu={mu}", mu=mu) for base in bases for mu in mus]
    cfgs = [cfg for base in bases for cfg in method_variants(base, methods)]
    _check_paths([("scenario", p) for p in paths], [("--out", args.out)])
    rows = compare_methods(cfgs)
    if args.mu is not None:
        rows = [{**row, "mu": cfg.estimator.mu} for row, cfg in zip(rows, cfgs)]
    return _report(rows, args)


def _forgetting_factors(text: str) -> list[float]:
    """The numbers of --mu, each in (0, 1]: checked here, as `fixed` builds no estimator."""
    try:
        mus = [float(x) for x in text.split(",")]
    except ValueError:
        mus = [math.nan]  # fails the range check
    if not all(0.0 < mu <= 1.0 for mu in mus):
        raise ConfigError(f"--mu {text!r} must be a comma list of numbers in (0, 1]")
    return mus


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fritpid", description="data-driven PID tuning and simulation"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tune = sub.add_parser("tune", help="offline tuning from a closed-loop CSV")
    p_tune.add_argument("dataset", help="CSV with t,r,u,y columns, such as a run trace")
    p_tune.add_argument("--gm-tau", type=float, default=GmSpec.tau)
    p_tune.add_argument("--gm-dc-gain", type=float, default=GmSpec.dc_gain)
    p_tune.add_argument("--exact-zoh", action="store_true",
                        help="zero-order-hold reference model instead of the default")
    p_tune.add_argument("--out", help="write tuned gains to this JSON file")
    p_tune.set_defaults(func=_cmd_tune)

    p_run = sub.add_parser("run", help="run a scenario JSON")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--save-dataset", default=None,
                       help="also save the run as a closed-loop dataset CSV")
    p_run.set_defaults(func=_cmd_run)

    table = argparse.ArgumentParser(add_help=False)  # the options of a command that prints a table
    table.add_argument("--out", default=None, help="also write the table to this file")
    table.add_argument("--format", choices=["csv", "json"], default="csv")

    p_cmp = sub.add_parser("compare", parents=[table], help="compare estimator methods")
    p_cmp.add_argument("scenario", help="scenario JSON, or a directory whose *.json files are "
                       "the scenarios; each is compared over --methods")
    p_cmp.add_argument("--methods", default=",".join(ESTIMATOR_MODES),
                       help="comma list of estimator modes (default: %(default)s; ef breaks "
                       "down on scenarios/matched_lti.json, so with the default "
                       "`compare scenarios/` exits 3)")
    p_cmp.add_argument("--mu", help="comma list of forgetting factors to cross with --methods")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalBreakdownError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
