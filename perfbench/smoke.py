#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs one short pass of every workload in BENCHMARK.json, untraced and
traced, at seed 0 (the seed whose outputs are checked against
reference.json) and checks that the result line reports success and carries
exactly the metric names and units BENCHMARK.json declares.  It also checks
that the benchmark refuses to run without the fritpid sources.  Exits
non-zero on the first failure.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(proc, declared: dict, label: str) -> None:
    if proc.returncode != 0:
        sys.exit(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        sys.exit(f"{label}: checks failed\n{proc.stderr}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        sys.exit(f"{label}: metrics {printed} differ from BENCHMARK.json {declared}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            sys.exit(f"{label}: {name} is not a number")
    print(f"ok  {label}: {result['attempted']} operations")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            proc = run(
                ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace], ROOT
            )
            check_result(proc, declared[trace], f"{workload} --trace {trace}")

    # without src/ the benchmark must fail and print no result
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "record_and_tune", "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
        if proc.returncode == 0 or proc.stdout.strip():
            sys.exit("bare checkout: benchmark did not refuse to run")
    print("ok  bare checkout refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
