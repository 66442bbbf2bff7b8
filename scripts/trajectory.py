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
  cli_wall_s           per CLI command, the wall seconds of each of 5 real
                       `python -m fritpid` processes (runs) and their median;
                       the checkouts take turns going first here too
  verdict              every checkout after the first, against the first: per
                       workload and metric, and per CLI command under "cli_wall_s"

A verdict pairs the runs of the two checkouts by seed (CLI walls by repeat)
and takes the log of each pair's ratio, checkout over first.  Its `ratio` is
the Hodges-Lehmann estimate: the median of the Walsh averages (the means of
every two log ratios, each with itself too), exponentiated.  `low` and
`high` are the k-th smallest and k-th largest Walsh average, exponentiated:
a distribution-free interval for the median ratio whose exact `confidence`
comes from the signed-rank statistic, the largest k that keeps it >= 95 %
(k = 9 of 55 at n = 10), or k = 1 where n allows no 95 % (93.75 % at n = 5).
It reads `better` or `worse` when the whole interval lies on that side of 1,
the side taken from BENCHMARK.json's `better` (CLI walls: lower), else
`unresolved`.  No random numbers are drawn.

Nothing under perfbench/ is changed; every run lasts BENCHMARK.json's
run_seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)
CLI_REPEATS = 5
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


def signed_rank_k(n: int) -> tuple[int, float]:
    """(k, confidence) of the interval from the k-th smallest to the k-th largest of the
    n(n+1)/2 Walsh averages of n pairs: the largest k whose confidence is >= 95 %, else 1."""
    ways = [1] + [0] * (n * (n + 1) // 2)  # ways[w]: the subsets of {1..n} that sum to w
    for i in range(1, n + 1):
        for w in range(len(ways) - 1, i - 1, -1):
            ways[w] += ways[w - i]
    # the interval misses the median when the signed-rank statistic is < k or > M - k
    confidence = [1.0 - 2.0 * sum(ways[:k]) / 2**n for k in range(1, len(ways))]
    k = max((k for k, c in enumerate(confidence, 1) if c >= 0.95), default=1)
    return k, confidence[k - 1]


def paired_verdict(parent: list, change: list, better: str) -> dict:
    """The verdict on change/parent over the pairs (parent[i], change[i])."""
    logs = [math.log(c / p) for p, c in zip(parent, change)]
    walsh = sorted((a + b) / 2.0 for i, a in enumerate(logs) for b in logs[i:])
    k, confidence = signed_rank_k(len(logs))
    low, high = math.exp(walsh[k - 1]), math.exp(walsh[-k])
    if high < 1.0 or low > 1.0:  # the whole interval on one side of 1
        verdict = "better" if (high < 1.0) == (better == "lower") else "worse"
    else:
        verdict = "unresolved"
    return {"ratio": math.exp(statistics.median(walsh)), "low": low, "high": high,
            "confidence": confidence, "n": len(logs), "verdict": verdict}


def verdicts(parent: dict, change: dict, better: dict) -> dict:
    """{workload: {metric: verdict}, "cli_wall_s": {command: verdict}} of two checkout
    entries; `better` maps each end-to-end metric to "lower" or "higher"."""
    def by_seed(entry):
        return {(r["workload"], r["seed"]): r["metrics"] for r in entry["runs"]}

    mine, theirs = by_seed(change), by_seed(parent)
    out = {}
    for workload, seed in sorted(theirs.keys() & mine.keys()):
        for metric in theirs[workload, seed]:
            pairs = out.setdefault(workload, {}).setdefault(metric, ([], []))
            pairs[0].append(theirs[workload, seed][metric])
            pairs[1].append(mine[workload, seed][metric])
    out = {workload: {metric: paired_verdict(*pairs, better[metric])
                      for metric, pairs in metrics.items() if metric in better}
           for workload, metrics in out.items()}
    walls = change.get("cli_wall_s", {})
    out["cli_wall_s"] = {
        command: paired_verdict(timing["runs"], walls[command]["runs"], "lower")
        for command, timing in parent.get("cli_wall_s", {}).items() if command in walls}
    return out


def add_verdicts(checkouts: dict, better: dict) -> None:
    """Give every checkout entry after the first its `verdict` against the first, and
    print one line per cell."""
    first, *rest = checkouts
    for name in rest:
        checkouts[name]["verdict"] = verdicts(checkouts[first], checkouts[name], better)
        print(f"{name} / {first}")
        for group, cells in checkouts[name]["verdict"].items():
            for what, v in cells.items():
                label = f"{group}  {what}" if group != "cli_wall_s" else f"cli  {what}  wall"
                print(f"  {label}  {v['ratio']:.3f} [{v['low']:.3f}, {v['high']:.3f}]  "
                      f"n={v['n']} {100 * v['confidence']:.1f} %  {v['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", metavar="NAME=DIR")
    parser.add_argument("--out", help="the JSON file to write")
    parser.add_argument("--verdict", metavar="BENCH.json",
                        help="print the verdicts of a written file and run nothing")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.verdict:
        if args.checkouts or args.out:
            parser.error("--verdict takes no checkouts and no --out")
        add_verdicts(json.loads(Path(args.verdict).read_text())["checkouts"], better)
        return 0
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
    add_verdicts(results, better)
    Path(args.out).write_text(json.dumps(
        {"seconds": seconds, "seeds": list(SEEDS), "checkouts": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
