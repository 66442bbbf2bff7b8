#!/usr/bin/env python3
"""Calibration helper for the hysteretic plant defaults.

Checks that the default actuator covers the 10-60 mm displacement band over
the input range, reports the hysteresis loop geometry, and regenerates the
FRIT-tuned initial gains frozen into scenarios/load_change.json from the
prior experiment in perfbench/prior_experiment.json (fixed safe gains,
constant 50 mm reference) at seed 0.

Run from the repo root as ``PYTHONPATH=src python scripts/calibrate_plant.py``.
Exits 1 if the plant misses the band or the regenerated gains differ from
the frozen ones by more than TOLERANCE, so CI catches a drift in either.
"""

import json
import sys
from pathlib import Path

import numpy as np

from fritpid.frit import ClosedLoopDataset, batch_tune, frit_cost
from fritpid.harness import ScenarioConfig, run_scenario
from fritpid.plant import BoucWenParams, BoucWenPlant

ROOT = Path(__file__).resolve().parent.parent
LOAD_CHANGE = ROOT / "scenarios" / "load_change.json"
PRIOR_EXPERIMENT = ROOT / "perfbench" / "prior_experiment.json"
TOLERANCE = 1e-6


def quasi_static_sweep(plant: BoucWenPlant, u_max: float = 10.0, samples_per_leg: int = 4000):
    """Slow 0 -> u_max -> 0 ramp; returns (u, y) for loop-shape checks."""
    plant.reset(seed=0)
    up = np.linspace(0.0, u_max, samples_per_leg)
    down = np.linspace(u_max, 0.0, samples_per_leg)
    u = np.concatenate([up, down])
    y = np.array([plant.step(float(ui), k * plant.ts) for k, ui in enumerate(u)])
    return u, y


def main():
    plant = BoucWenPlant(BoucWenParams(), ts=0.01)
    u, y = quasi_static_sweep(plant, u_max=10.0)
    n = len(u) // 2
    asc, desc = y[:n], y[n:][::-1]
    print(f"quasi-static range: [{y.min():.2f}, {y.max():.2f}] mm "
          f"(target: covers 10-60 mm)")
    print(f"loop area: {np.trapezoid(asc, u[:n]) - np.trapezoid(desc, u[:n]):.2f}, "
          f"max branch gap: {np.max(np.abs(asc - desc)):.2f} mm")
    if not (y.max() >= 60.0 and y.min() <= 10.0):
        print("FAIL: the default plant does not cover 10-60 mm", file=sys.stderr)
        return 1

    prior = ScenarioConfig.from_json(PRIOR_EXPERIMENT)
    trace = run_scenario(prior, seed=0)
    data = ClosedLoopDataset(u0=trace["u"], y0=trace["y"], r=trace["r"], ts=prior.ts)
    gm = prior.gm.build(prior.ts)
    theta0 = batch_tune(data, gm)
    print(f"prior-experiment tuned gains (freeze into load_change.json):")
    print(f"  theta0 = [{theta0[0]:.8f}, {theta0[1]:.8f}, {theta0[2]:.8f}]")
    print(f"  surrogate fit cost: {frit_cost(theta0, data, gm):.2f}")

    frozen = json.loads(LOAD_CHANGE.read_text())["estimator"]["theta0"]
    gap = max(abs(a - b) for a, b in zip(theta0, frozen))
    if gap > TOLERANCE:
        print(f"FAIL: {LOAD_CHANGE.name} freezes theta0 = {frozen}, "
              f"{gap:.3g} away from the regenerated gains (tolerance {TOLERANCE})",
              file=sys.stderr)
        return 1
    print(f"frozen theta0 in {LOAD_CHANGE.name} agrees to {gap:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
