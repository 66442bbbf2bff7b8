#!/usr/bin/env python3
"""Golden trace digests: pin every closed-loop trace to the bit.

Runs each bundled scenario, `method_comparison` at mu = 0.9 and the prior
experiment of the benchmark under every estimator mode at seeds 0 and 7, and
records the sha256 of the run's (13, n) float64 trace buffer, or the step
and message of a numerical breakdown.  `tests/test_golden_traces.py`
recomputes the digests and fails on any change.

Run from the repo root:

    PYTHONPATH=src python scripts/golden_traces.py           # check, exit 1 on a change
    PYTHONPATH=src python scripts/golden_traces.py --write   # regenerate the file

Regenerate only for an intended numerical change, and record in CHANGES.md
which digests moved and by how much.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import re
import sys
from pathlib import Path

import numpy as np

from fritpid.harness import (
    ESTIMATOR_MODES,
    TRACE_COLUMNS,
    NumericalBreakdownError,
    ScenarioConfig,
    _variant,
    method_variants,
    run_scenario,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_traces.json"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json")) + [
    ROOT / "perfbench" / "prior_experiment.json"
]
SEEDS = (0, 7)


def platform_facts() -> dict:
    libc, libc_version = platform.libc_ver()
    return {
        "libc": f"{libc} {libc_version}".strip(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_digest(cfg: ScenarioConfig, seed: int):
    """sha256 of the run's trace buffer, or its breakdown step and message."""
    try:
        trace = run_scenario(cfg, seed=seed)
    except NumericalBreakdownError as exc:
        message = str(exc)
        return {"breakdown": int(re.match(r"step (\d+) ", message).group(1)),
                "message": message}
    buf = np.stack([trace[c] for c in TRACE_COLUMNS])
    assert buf.dtype == np.float64 and buf.shape == (len(TRACE_COLUMNS), len(trace))
    return hashlib.sha256(buf.tobytes()).hexdigest()


def scenarios():
    """(key, scenario) of every golden scenario: each file under its stem, and
    `method_comparison` at mu = 0.9 under `method_comparison/mu=0.9`."""
    for path in SCENARIOS:
        cfg = ScenarioConfig.from_json(path)
        yield path.stem, cfg
        if path.stem == "method_comparison":
            yield f"{path.stem}/mu=0.9", _variant(cfg, "mu=0.9", mu=0.9)


def compute() -> dict:
    """{"<key>/<mode>/seed<seed>": digest} over every golden run."""
    digests = {}
    for key, base in scenarios():
        for cfg in method_variants(base, ESTIMATOR_MODES):
            for seed in SEEDS:
                digests[f"{key}/{cfg.estimator.mode}/seed{seed}"] = run_digest(cfg, seed)
    return digests


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per run whose digest moved, appeared or disappeared."""
    lines = []
    for key in sorted(expected.keys() | actual.keys()):
        want, got = expected.get(key), actual.get(key)
        if want != got:
            lines.append(f"{key}: expected {want!r}, got {got!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"regenerate {GOLDEN.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    digests = compute()
    if args.write:
        GOLDEN.write_text(json.dumps(
            {"generated_on": platform_facts(), "runs": digests}, indent=1, sort_keys=True
        ) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN}")
        return 0
    moved = differences(load()["runs"], digests)
    for line in moved:
        print(line)
    print(f"{len(digests) - len(moved)}/{len(digests)} runs match ({platform_facts()})")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
