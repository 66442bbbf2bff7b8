"""Online adaptive FRIT is recursive FRIT: noforget and ef end where weighted batch FRIT does.

Every mode's update satisfies R_k theta_k = (R_k - phi_k phi_k^T) theta_{k-1} + phi_k d_k.
For noforget (mu = 1) and ef, R_k - phi_k phi_k^T = mu R_{k-1}, so the recursion unrolls
from R_0 = r0 I to the weighted least-squares solution with a fixed prior at theta0:

    theta_N = (mu^N r0 I + sum_k mu^(N-k) phi_k phi_k^T)^-1
              (mu^N r0 theta0 + sum_k mu^(N-k) phi_k d_k)

with (phi_k, d_k) the batch regressor of the closed-loop record (`regressor_samples`,
nothing skipped).  `df` and `er` have no such form.  For er, R_k - phi_k phi_k^T =
mu R_{k-1} + (1 - mu) R_inf: the floor is weighed at theta_{k-1}, a point that moves.
For df, R_k - phi_k phi_k^T is R_{k-1} less the slice forgotten along phi_k, and that slice
is also weighed at theta_{k-1}.  Neither anchor is theta0, so no fixed prior reproduces them.

The gains are compared in the metric of A, the matrix above:
||A (theta_trace - theta_N)|| <= TOL ||A|| ||theta_N||.  A plain relative error would be
scaled by cond(A), which ef's windup on matched_lti drives to about 1e22 within 2,000 steps.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fritpid.frit import ClosedLoopDataset, regressor_samples
from fritpid.harness import ScenarioConfig, method_variants, run_scenario

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
MAX_STEPS = 2000
# the worst measured over these 6 runs is 4.8e-14 (method_comparison, noforget); giving the
# data terms weight 1 instead of mu^(N-k) moves every ef run by 2.9e-6 or more
TOL = 1e-12


@pytest.mark.parametrize("mode", ["noforget", "ef"])
@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_final_gains_are_the_weighted_batch_solution(path, mode):
    base = ScenarioConfig.from_json(path)
    horizon = min(base.duration, MAX_STEPS * base.ts)
    [cfg] = method_variants(replace(base, duration=horizon, evaluation_window=[0.0, horizon]),
                            [mode])
    trace = run_scenario(cfg, seed=0)
    data = ClosedLoopDataset(u0=trace["u"], y0=trace["y"], r=trace["r"], ts=cfg.ts)
    phis, ds = regressor_samples(data, cfg.gm.build(cfg.ts))

    n = len(ds)
    mu = 1.0 if mode == "noforget" else cfg.estimator.mu
    weighted = phis * (mu ** np.arange(n - 1, -1, -1.0))[:, None]  # mu^(N-k) phi_k
    prior = mu**n * cfg.estimator.r0
    A = prior * np.eye(3) + weighted.T @ phis
    b = prior * np.array(cfg.estimator.theta0) + weighted.T @ ds
    theta_n = np.linalg.solve(A, b)

    theta = np.array([trace[g][-1] for g in ("kp", "ki", "kd")])
    scale = np.linalg.norm(A, 2) * np.linalg.norm(theta_n)
    assert np.linalg.norm(A @ (theta - theta_n)) <= TOL * scale, (
        f"{cfg.name}: trace {theta}, weighted batch {theta_n}")
