#!/usr/bin/env python3
"""Benchmark trajectory: the medians of `perfbench/run.py` and the step cost of checkouts.

    python scripts/trajectory.py parent=../fritpid-parent change=. --out BENCH_27.json
    python scripts/trajectory.py --verdict BENCH_27.json   # print its verdicts, run nothing

Each NAME=DIR names a source checkout with `perfbench/run.py` and
`scripts/step_cost.py`.  For seeds 0-9 and every workload of BENCHMARK.json,
each checkout runs `perfbench/run.py --trace 0` as a subprocess, so one round
holds one run of every checkout on every workload; the checkouts take turns
going first from run to run, so drift of the machine falls on all of them
alike.  The JSON written holds, per checkout:

  git_rev, machine     from the run's machine line (the calibration loop
                       before and after stays with each run)
  runs                 workload, seed, metrics, ok and the calibration of each run
  summary              per workload and metric: median, q1, q3 and n over the seeds;
                       ten seeds give ten alternating pairs of runs per workload, as a
                       no-regression check of a change against its parent needs
  opcodes_per_step     per estimator mode, from scripts/step_cost.py
  opcodes_per_layer    per mode, the opcodes per step of each function (co_qualname)
  cli_wall_s           per CLI command, the wall seconds of each of 10 real
                       `python -m fritpid` processes (runs) and their median;
                       the checkouts take turns going first here too
  verdict              every checkout after the first, against the first: per
                       workload and metric, and per CLI command under "cli_wall_s"

A verdict pairs the runs of the two checkouts by seed (CLI walls by repeat)
and applies the benchmark gate's rule, with `better` and `bound` from the
metric's end_to_end entry in BENCHMARK.json (a CLI wall's from wall_s).  A
pair is won when the checkout reads better (a tie counts for neither); m and
IQR = q3 - q1 are the first's median and spread, as in `summary`:

  better       wins >= 0.9 n, and the checkout's median beats m by more than IQR
  worse        the checkout's median is worse than m by more than bound * |m|
  unresolved   neither, IQR > bound * |m|, and some run of the checkout reads
               no better than some run of the first: too wide a spread to tell
  within       every other case

A cell whose m is 0 is judged by the same rule; its ratio of medians and its
IQR as a % of m are null in the JSON and print as n/a.

It exits 1 when any cell is worse, after it has written --out.  Nothing
under perfbench/ is changed; every run lasts BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)
CLI_REPEATS = 10
CLI_COMMANDS = ["compare scenarios/load_change.json",
                "compare scenarios/load_change.json --mu 0.99,0.9"]
STEP_COST = """
import json, sys
sys.path.insert(0, "scripts")
import step_cost
by_function = step_cost.compute_by_function()
print(json.dumps({
    "opcodes_per_step": {m: n / step_cost.STEPS for m, n in step_cost.totals(by_function).items()},
    "opcodes_per_layer": {m: {name: n / step_cost.STEPS for name, n in sorted(counts.items())}
                          for m, counts in by_function.items()},
}))
"""


def bench(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(machine line, result line) of one `perfbench/run.py --trace 0` run in `root`."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    machine, result = done.stdout.splitlines()[-2:]
    return json.loads(machine)["machine"], json.loads(result)


def step_cost(root: Path) -> dict:
    """opcodes_per_step {mode: n} and opcodes_per_layer {mode: {co_qualname: n}}, per step,
    from the checkout's own scripts/step_cost.py."""
    done = subprocess.run([sys.executable, "-c", STEP_COST], cwd=root, capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    return json.loads(done.stdout)


def in_turn(names: list, turn: int) -> list:
    """The names, starting from the one whose turn it is to go first."""
    return names[turn % len(names):] + names[:turn % len(names)]


def cli_wall_s(roots: dict) -> dict:
    """{name: {command: {median, runs}}}: the wall seconds of CLI_REPEATS real
    `python -m fritpid` processes of each of CLI_COMMANDS in each checkout (NAME: DIR)."""
    out = {name: {command: {"runs": []} for command in CLI_COMMANDS} for name in roots}
    for turn in range(CLI_REPEATS):
        for command in CLI_COMMANDS:
            for name in in_turn(list(roots), turn):
                root = Path(roots[name]).resolve()
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-m", "fritpid", *command.split()], cwd=root,
                               capture_output=True, check=True,
                               env={**os.environ, "PYTHONPATH": str(root / "src")})
                out[name][command]["runs"].append(time.perf_counter() - t0)
    for timings in out.values():
        for entry in timings.values():
            entry["median"] = statistics.median(entry["runs"])
    return out


def summary(runs: list, workload: str) -> dict:
    """{metric: {median, q1, q3, n}} over the runs of one workload."""
    by_metric = {}
    for run in runs:
        if run["workload"] == workload:
            for name, value in run["metrics"].items():
                by_metric.setdefault(name, []).append(value)
    out = {}
    for name, values in by_metric.items():
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    return out


def paired_verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """The gate's verdict on change against parent over the pairs (parent[i], change[i])."""
    sign = 1.0 if better == "lower" else -1.0  # sign * value: lower reads better
    p, c = [sign * v for v in parent], [sign * v for v in change]
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    iqr, gain = q3 - q1, sign * (median - statistics.median(change))
    wins = sum(b < a for a, b in zip(p, c))
    verdict = ("better" if wins >= 0.9 * len(p) and gain > iqr else
               "worse" if -gain > bound * abs(median) else
               "unresolved" if iqr > bound * abs(median) and max(c) >= min(p) else "within")
    return {"ratio": statistics.median(change) / median if median else None, "wins": wins,
            "n": len(p), "iqr_pct": 100.0 * iqr / abs(median) if median else None,
            "verdict": verdict}


def verdicts(parent: dict, change: dict, rules: dict) -> dict:
    """{workload: {metric: verdict}, "cli_wall_s": {command: verdict}} of two checkout
    entries; `rules` maps each end-to-end metric to its BENCHMARK.json entry."""
    def by_seed(entry):
        return {(r["workload"], r["seed"]): r["metrics"] for r in entry["runs"]}

    def judge(parent, change, metric):
        return paired_verdict(parent, change, rules[metric]["better"], rules[metric]["bound"])

    mine, theirs = by_seed(change), by_seed(parent)
    out = {}
    for workload, seed in sorted(theirs.keys() & mine.keys()):
        for metric in theirs[workload, seed]:
            pairs = out.setdefault(workload, {}).setdefault(metric, ([], []))
            pairs[0].append(theirs[workload, seed][metric])
            pairs[1].append(mine[workload, seed][metric])
    out = {workload: {metric: judge(*pairs, metric)
                      for metric, pairs in metrics.items() if metric in rules}
           for workload, metrics in out.items()}
    walls = change.get("cli_wall_s", {})
    out["cli_wall_s"] = {command: judge(timing["runs"], walls[command]["runs"], "wall_s")
                         for command, timing in parent.get("cli_wall_s", {}).items()
                         if command in walls}
    return out


def add_verdicts(checkouts: dict, rules: dict) -> bool:
    """Give every checkout entry after the first its `verdict` against the first, print
    one line per cell, and say whether any cell is worse."""
    first, *rest = checkouts
    worse = False
    for name in rest:
        checkouts[name]["verdict"] = verdicts(checkouts[first], checkouts[name], rules)
        print(f"{name} / {first}")
        for group, cells in checkouts[name]["verdict"].items():
            for what, v in cells.items():
                label = f"{group}  {what}" if group != "cli_wall_s" else f"cli  {what}  wall"
                ratio = "n/a" if v["ratio"] is None else f"{v['ratio']:.3f}"
                iqr = "n/a" if v["iqr_pct"] is None else f"{v['iqr_pct']:.1f} %"
                print(f"  {label}  {ratio}  {v['wins']}/{v['n']} won  IQR {iqr}  {v['verdict']}")
                worse |= v["verdict"] == "worse"
    return worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", metavar="NAME=DIR")
    parser.add_argument("--out", help="the JSON file to write")
    parser.add_argument("--verdict", metavar="BENCH.json",
                        help="print the verdicts of a written file and run nothing")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"]}
    if args.verdict:
        if args.checkouts or args.out:
            parser.error("--verdict takes no checkouts and no --out")
        return int(add_verdicts(json.loads(Path(args.verdict).read_text())["checkouts"], rules))
    if not args.checkouts or not args.out:
        parser.error("give one or more checkouts as NAME=DIR and --out")
    if not all("=" in c for c in args.checkouts):
        parser.error("give each checkout as NAME=DIR")
    seconds = spec["run_seconds"]
    roots = dict(c.split("=", 1) for c in args.checkouts)
    results = {name: {"runs": []} for name in roots}
    turn = 0
    for seed in SEEDS:
        for workload in (w["name"] for w in spec["workloads"]):
            names = in_turn(list(roots), turn)
            turn += 1
            for name in names:
                machine, result = bench(Path(roots[name]).resolve(), workload, seed, seconds)
                results[name]["git_rev"] = machine["git_rev"]
                results[name]["machine"] = {k: v for k, v in machine.items()
                                            if not k.startswith("calibration")}
                results[name]["runs"].append({
                    "workload": workload, "seed": seed,
                    "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                    "ok": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"],
                    "calibration_s": [machine["calibration_s_before"],
                                      machine["calibration_s_after"]],
                })
                print(name, workload, seed, json.dumps(results[name]["runs"][-1]["metrics"]),
                      flush=True)
    walls = cli_wall_s(roots)
    for name, root in roots.items():
        entry = results[name]
        entry["summary"] = {w["name"]: summary(entry["runs"], w["name"])
                            for w in spec["workloads"]}
        entry.update(step_cost(Path(root).resolve()))
        entry["cli_wall_s"] = walls[name]
    worse = add_verdicts(results, rules)
    Path(args.out).write_text(json.dumps(
        {"seconds": seconds, "seeds": list(SEEDS), "checkouts": results}, indent=1) + "\n")
    return int(worse)


if __name__ == "__main__":
    sys.exit(main())
