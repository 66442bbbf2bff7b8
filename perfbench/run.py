#!/usr/bin/env python3
"""fritpid benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload compare_load_change --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; fritpid is imported from ./src.
The seed only generates the workload's inputs.  After an unmeasured
warm-up, passes of the workload repeat until --seconds would be exceeded
(at least one pass).  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
machine facts (not metrics).

--trace 0 reports the end-to-end metrics (medians over passes):
  setup_s      fresh interpreter: import fritpid + ScenarioConfig.from_json
               of the workload's scenario (median of 5)
  wall_s       one pass
  step_us      wall us per simulated closed-loop step of the pass's
               simulation calls (record_and_tune: the `fritpid run` command)
  record_s     one closed-loop record: `fritpid run --save-dataset` in
               record_and_tune, else simulation wall / runs
  tune_s       one tuned result: `fritpid tune` in record_and_tune, else
               simulation wall / runs (each run tunes its gains online)
  peak_rss_mb  peak resident memory of this process (MiB)
  ok_frac      operations that passed their check / operations attempted

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.py (p50/p99 per call and call counts per pass, layer self
times, trace overhead).  Call counts must repeat exactly from pass to pass
and match the counts the workload's configuration implies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "step_us": "us",
    "record_s": "s",
    "tune_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
}

SETUP_REPEATS = 5
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import fritpid; "
    "fritpid.ScenarioConfig.from_json(sys.argv[2]); print(fritpid.__file__)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="compare_load_change | long_run_lti | record_and_tune")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(scenario: Path) -> list[float]:
    walls = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(scenario)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        walls.append(perf_counter() - t)
        if proc.returncode != 0 or not proc.stdout.strip().startswith(str(SRC)):
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return walls


def calibration_s() -> float:
    """Time of a fixed pure-Python loop, to show machine drift between runs."""
    t = perf_counter()
    acc = 0.0
    for i in range(1_000_000):
        acc += (i % 7) * 0.5
    return perf_counter() - t


def machine_facts() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "fritpid").glob("*.py")):
        digest.update(path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_timed(step, seconds: float) -> list:
    """Call step() until the next call would end past `seconds`; at least once."""
    out = []
    t0 = perf_counter()
    while True:
        t = perf_counter()
        out.append(step())
        if perf_counter() - t0 + (perf_counter() - t) > seconds:
            return out


def warm_up(wl) -> None:
    """Unmeasured first use; a failure here shows again in the measured passes."""
    try:
        wl.warm_up()
    except Exception as exc:
        print(f"warm-up failed: {exc!r}", file=sys.stderr)


def end_to_end(wl, seconds: float) -> tuple[dict, int, int]:
    setup = measure_setup(wl.scenario)
    warm_up(wl)
    passes = run_timed(wl.run_pass, seconds)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "step_us": statistics.median(p.step_us for p in passes),
        "record_s": statistics.median(p.record_s for p in passes),
        "tune_s": statistics.median(p.tune_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    values["ok_frac"] = 1.0 - failed / attempted
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return metrics, attempted, failed


def per_layer(wl, seconds: float) -> tuple[dict, int, int, bool]:
    from tracer import ROOT_SPAN, Tracer, per_layer_metrics

    tracer = Tracer()
    untraced, traced = [], []

    def pair():
        untraced.append(wl.run_pass())
        tracer.reset()
        tracer.install()
        try:
            root = tracer.begin(ROOT_SPAN)
            res = wl.run_pass()
            tracer.finish(root)
        finally:
            tracer.uninstall()
        traced.append((res, tracer.summary()))

    warm_up(wl)
    run_timed(pair, seconds)
    passes = untraced + [res for res, _ in traced]
    summaries = [s for _, s in traced]
    ok = True
    for s in summaries:
        if sum(s["layer_self_ns"].values()) != s["wall_ns"]:
            print("trace: layer self times do not sum to the pass wall", file=sys.stderr)
            ok = False
        if s["calls"] != summaries[0]["calls"]:
            print("trace: call counts differ between passes", file=sys.stderr)
            ok = False
    for span, count in wl.expected_calls().items():
        got = summaries[0]["calls"].get(span, 0)
        if got != count:
            print(f"trace: {span} called {got} times, expected {count}", file=sys.stderr)
            ok = False
    metrics = per_layer_metrics(summaries, [p.wall_s for p in untraced])
    return (
        metrics,
        sum(p.attempted for p in passes),
        sum(p.failed for p in passes),
        ok,
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fritpid" / "__init__.py").is_file():
        print(f"error: no fritpid sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fritpid

    if not Path(fritpid.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: fritpid imported from {fritpid.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # the harness logs once per run when gains leave the positive orthant;
    # keep stderr for the benchmark's own check failures
    logging.getLogger("fritpid").setLevel(logging.ERROR)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        facts = machine_facts()
        facts["calibration_s_before"] = calibration_s()
        wl = WORKLOADS[args.workload](ROOT, args.seed, workdir)
        if args.trace:
            metrics, attempted, failed, trace_ok = per_layer(wl, args.seconds)
        else:
            metrics, attempted, failed = end_to_end(wl, args.seconds)
            trace_ok = True
        facts["calibration_s_after"] = calibration_s()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"machine": facts, "workload": args.workload, "seed": args.seed}))
    print(json.dumps({
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
