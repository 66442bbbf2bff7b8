#!/usr/bin/env python3
"""Step cost: pin the opcodes a closed-loop run executes, per estimator mode.

Runs `scenarios/load_change.json` cut to STEPS steps at seed 0 under every
estimator mode, once untraced as a warm-up and once under `sys.settrace`
with `f_trace_opcodes`, and counts the opcodes executed in frames whose code
lives in the `fritpid` package.  Frames of the standard library and numpy
are not counted, so the totals do not depend on their versions.  The count
is exact and repeats across runs and `PYTHONHASHSEED` values, but bytecode
differs between Python minor versions, so `tests/step_cost.json` keeps one
entry per minor version and `tests/test_step_cost.py` requires equality.

Run from the repo root:

    PYTHONPATH=src python scripts/step_cost.py                 # check, exit 1 on a change
    PYTHONPATH=src python scripts/step_cost.py --write         # record this Python's counts
    PYTHONPATH=src python scripts/step_cost.py --by-function   # check, and print the
                                                               # opcodes per step by function

Record only for an intended change to the loop, and note in CHANGES.md the
opcodes per step before and after for each mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import fritpid
from fritpid.harness import ScenarioConfig, method_variants, run_scenario

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "step_cost.json"
SCENARIO = ROOT / "scenarios" / "load_change.json"
STEPS = 300
PACKAGE = os.path.join(os.path.dirname(fritpid.__file__), "")  # with the separator


def minor_version() -> str:
    return "{}.{}".format(*sys.version_info[:2])


def count_opcodes(cfg: ScenarioConfig) -> Counter:
    """Opcodes that `run_scenario(cfg, seed=0)` executes in fritpid's own frames, by the
    `co_qualname` of the function they run in; the total is the sum of the counter."""
    by_code = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            by_code[frame.f_code] += 1
        return local

    def start(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            frame.f_trace_opcodes = True
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        run_scenario(cfg, seed=0)
    finally:
        sys.settrace(previous)
    counts = Counter()
    for code, n in by_code.items():  # functions of one name, such as lambdas, add up
        counts[getattr(code, "co_qualname", code.co_name)] += n  # co_name before 3.11
    return counts


def compute_by_function() -> dict:
    """{mode: Counter of opcodes by function} over STEPS steps of the cut scenario, each
    after a warm-up run."""
    base = ScenarioConfig.from_json(SCENARIO)
    horizon = STEPS * base.ts
    base = replace(base, duration=horizon, evaluation_window=[0.0, horizon])
    counts = {}
    for cfg in method_variants(base):
        run_scenario(cfg, seed=0)
        counts[cfg.estimator.mode] = count_opcodes(cfg)
    return counts


def totals(by_function: dict) -> dict:
    """{mode: opcodes}: the sum of each mode's counter."""
    return {mode: sum(counts.values()) for mode, counts in by_function.items()}


def compute() -> dict:
    """{mode: opcodes} over STEPS steps of the cut scenario."""
    return totals(compute_by_function())


def print_by_function(by_function: dict) -> None:
    """Opcodes per step of each function (rows, most first) in each mode (columns)."""
    modes = list(by_function)
    names = sorted(set().union(*by_function.values()),
                   key=lambda name: (-max(by_function[m][name] for m in modes), name))
    width = max(map(len, names))
    print(f"{'opcodes per step':{width}s}" + "".join(f"{m:>10s}" for m in modes))
    for name in names:
        print(f"{name:{width}s}" + "".join(f"{by_function[m][name] / STEPS:10.3f}"
                                            for m in modes))


def load() -> dict:
    return json.loads(PINNED.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"record this Python's counts in {PINNED.relative_to(ROOT)}")
    parser.add_argument("--by-function", action="store_true",
                        help="also print the opcodes per step of each function in each mode")
    args = parser.parse_args(argv)
    by_function = compute_by_function()
    counts = totals(by_function)
    for mode, n in counts.items():
        print(f"{mode:9s} {n:9d} opcodes  {n / STEPS:10.3f} per step")
    if args.by_function:
        print_by_function(by_function)
    version = minor_version()
    if args.write:
        pinned = load() if PINNED.exists() else {}
        pinned[version] = counts
        PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        print(f"wrote the Python {version} counts to {PINNED}")
        return 0
    want = load().get(version)
    if want is None:
        print(f"no counts for Python {version}; record them with --write")
        return 1
    moved = {mode: (want.get(mode), n) for mode, n in counts.items() if want.get(mode) != n}
    for mode, (before, after) in moved.items():
        print(f"{mode}: pinned {before}, counted {after}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
