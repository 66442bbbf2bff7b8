"""Command line front end.

Subcommands:
    tune     offline gain tuning from a recorded closed-loop CSV
    run      execute a scenario JSON, write trace CSV + summary JSON
             (the summary includes the simulation's wall_s and step_us)
    sweep    forgetting-factor sweep for the directional estimator
    compare  run the estimator-method comparison over seeded trials

Exit codes: 0 success, 2 configuration error, 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from .adaptive import NumericalBreakdownError
from .frit import ClosedLoopDataset, batch_tune, frit_cost
from .harness import (
    ESTIMATOR_MODES,
    ConfigError,
    GmSpec,
    ScenarioConfig,
    compare_methods,
    method_variants,
    mu_sweep,
    run_scenario,
)
from .lti import ReferenceModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _cmd_tune(args) -> int:
    data = ClosedLoopDataset.load(args.dataset)
    gm = ReferenceModel.first_order(data.ts, tau=args.gm_tau, dc_gain=args.gm_dc_gain,
                                    discretization="zoh" if args.exact_zoh else "euler")
    theta = batch_tune(data, gm)
    cost = frit_cost(theta, data, gm)
    print(f"kp = {theta[0]:.6g}")
    print(f"ki = {theta[1]:.6g}")
    print(f"kd = {theta[2]:.6g}")
    print(f"model-reference cost = {cost:.6g}")
    if args.out:
        Path(args.out).write_text(
            json.dumps({"theta0": [float(x) for x in theta], "cost": cost}, indent=2)
            + "\n"
        )
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = ScenarioConfig.from_json(args.scenario)
    if cfg.name in (".", "..") or Path(cfg.name).name != cfg.name:
        raise ConfigError(f"scenario name {cfg.name!r} must be a plain file name")
    # both output targets are checked before the run, creating nothing
    outdir = Path(args.out)
    existing = next(p for p in (outdir, *outdir.absolute().parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {outdir}: {existing} is not a directory")
    if args.save_dataset:
        dataset = Path(args.save_dataset)
        if dataset.is_dir() or dataset.with_suffix(".json").is_dir():
            raise IsADirectoryError(f"--save-dataset {dataset} or its .json sidecar is a directory")
        if not (dataset.parent.is_dir() or dataset.parent.resolve() == outdir.resolve()):
            raise FileNotFoundError(f"--save-dataset {dataset}: no directory {dataset.parent}")
    t0 = time.perf_counter()
    trace = run_scenario(cfg, seed=args.seed)
    wall_s = time.perf_counter() - t0
    outdir.mkdir(parents=True, exist_ok=True)
    trace_path = outdir / f"{cfg.name}_trace.csv"
    trace.save_csv(trace_path)
    summary = trace.summary()
    # the cost of the simulation alone: no scenario load, no file writes
    summary["wall_s"] = wall_s
    summary["step_us"] = wall_s / len(trace) * 1e6
    (outdir / f"{cfg.name}_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    if args.save_dataset:
        ClosedLoopDataset(
            u0=trace["u"], y0=trace["y"], r=trace["r"], ts=cfg.ts
        ).save(args.save_dataset)
    print(f"trace: {trace_path}")
    print(f"MAE = {summary['mae']:.6g}, maxAE = {summary['max_ae']:.6g}")
    return EXIT_OK


def _write_table(rows: list[dict], path: Path, fmt: str) -> None:
    if fmt == "json":
        path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    else:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)


def _print_table(rows: list[dict]) -> None:
    keys = list(rows[0].keys())
    widths = {k: max(len(k), *(len(_fmt(r[k])) for r in rows)) for k in keys}
    print("  ".join(k.ljust(widths[k]) for k in keys))
    for r in rows:
        print("  ".join(_fmt(r[k]).ljust(widths[k]) for k in keys))


def _fmt(v) -> str:
    return f"{v:.5g}" if isinstance(v, float) else str(v)


def _cmd_sweep(args) -> int:
    cfg = ScenarioConfig.from_json(args.scenario)
    mus = [float(x) for x in args.mu.split(",")]
    rows = mu_sweep(cfg, mus)
    _print_table(rows)
    if args.out:
        _write_table(rows, Path(args.out), args.format)
    return EXIT_OK


def _cmd_compare(args) -> int:
    path = Path(args.scenario)
    if path.is_dir():
        cfgs = [ScenarioConfig.from_json(p) for p in sorted(path.glob("*.json"))]
        if not cfgs:
            raise ConfigError(f"no scenario JSON files in {path}")
    else:
        cfgs = method_variants(ScenarioConfig.from_json(path), args.methods.split(","))
    rows = compare_methods(cfgs)
    _print_table(rows)
    if args.out:
        _write_table(rows, Path(args.out), args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fritpid", description="data-driven PID tuning and simulation"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tune = sub.add_parser("tune", help="offline tuning from a closed-loop CSV")
    p_tune.add_argument("dataset", help="CSV with k,r,u,y columns (+ .json sidecar)")
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

    p_sweep = sub.add_parser("sweep", help="forgetting-factor sweep (directional mode)")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--mu", default="0.99,0.90,0.85,0.80,0.75")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="compare estimator methods")
    p_cmp.add_argument("scenario", help="scenario JSON, or a directory of them")
    p_cmp.add_argument("--methods", default=",".join(ESTIMATOR_MODES),
                       help="comma list of estimator modes (default: %(default)s)")
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--format", choices=["csv", "json"], default="csv")
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
