"""An independent oracle: the estimator against textbook matrix RLS.

The golden digests pin the estimator's bits, but cannot say whether new bits
are right.  Here the paper's four rules for the information matrix R are
written as numpy matrices, with P = inv(R):

    noforget   R <- R + phi phi^T
    ef         R <- mu R + phi phi^T
    df         R <- R - (1 - mu) R phi phi^T R / (phi^T R phi) + phi phi^T
    er         R <- mu R + (1 - mu) r_inf I + phi phi^T

and theta <- theta - P phi (phi^T theta - d).  The oracle runs over the
(phi, d) that `frit.regressor_samples` rebuilds from a trace's own y and u, and
skips the steps whose `deadzone` is set, as the estimator does.  While
cond(R) <= 1e8, the trace's ehat, gains and pmax (the largest eigenvalue of P,
by `eigvalsh`) agree with it to 1e-7 of each column's largest magnitude.

Every adaptive mode runs on both plant kinds; Hypothesis draws the rest of
the scenario: mu in [0.8, 1], r0, r_inf <= r0, the noise, an optional switch,
the seed and 200 to 1,000 steps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fritpid.adaptive import Estimator
from fritpid.frit import ClosedLoopDataset, regressor_samples
from fritpid.harness import ScenarioConfig, run_scenario

COND_LIMIT = 1e8
RTOL = 1e-7
COLUMNS = ["ehat", "kp", "ki", "kd", "pmax"]
PLANTS = {  # kind: (plant section, a reference that excites the loop)
    "lti": ({"kind": "lti", "num": [0.0, 0.01], "den": [1.0, -0.99]},
            {"kind": "square", "amplitude": 0.4, "offset": 0.6, "period": 2.0}),
    "bouc_wen": ({"kind": "bouc_wen"},
                 {"kind": "staircase", "levels": [20.0, 35.0, 50.0, 65.0], "interval": 2.0}),
}


def textbook_rls(cfg, phis, ds, deadzone):
    """The columns of COLUMNS, and cond(R), after each step of matrix RLS."""
    est = cfg.estimator
    mu = 1.0 if est.mode == "noforget" else est.mu
    R, theta = est.r0 * np.eye(3), np.array(est.theta0, dtype=float)
    P = np.linalg.inv(R)
    out = []
    for phi, d, skip in zip(phis, ds, deadzone):
        ehat = phi @ theta - d
        if not skip:
            if est.mode == "df":
                h = R @ phi
                R = R - (1.0 - mu) * np.outer(h, h) / (phi @ h) + np.outer(phi, phi)
            else:
                floor = (1.0 - mu) * est.r_inf if est.mode == "er" else 0.0
                R = mu * R + floor * np.eye(3) + np.outer(phi, phi)
            P = np.linalg.inv(R)
            theta = theta - P @ phi * ehat
        low, high = np.linalg.eigvalsh(R)[[0, -1]]
        out.append([ehat, *theta, np.linalg.eigvalsh(P)[-1], high / low])
    return np.array(out).T


@st.composite
def scenarios(draw, mode, kind):
    plant, reference = PLANTS[kind]
    steps = draw(st.integers(200, 1000))
    duration = steps * 0.01
    plant = {**plant, "noise_std": draw(st.sampled_from([0.0, 0.01, 0.05]))}
    if draw(st.booleans()):
        plant["schedule"] = [{"time": draw(st.floats(0.0, duration - 0.01)),
                              "gain_scale": draw(st.floats(0.5, 1.5))}]
    r0 = 10.0 ** draw(st.floats(-2.0, 0.0))
    estimator = {"mode": mode, "mu": draw(st.floats(0.8, 1.0)), "r0": r0,
                 "r_inf": r0 * draw(st.floats(0.1, 1.0)), "theta0": [0.1, 0.1, 0.01]}
    return ScenarioConfig.from_dict({
        "name": "oracle", "duration": duration, "ts": 0.01, "reference": reference,
        "estimator": estimator, "plant": plant, "seeds": [draw(st.integers(0, 9))],
    })


# mode and kind are parameters: derandomized draws of the pair left some pairs out
@pytest.mark.parametrize("kind", sorted(PLANTS))
@pytest.mark.parametrize("mode", Estimator.MODES)
@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(data=st.data())
def test_estimator_follows_textbook_rls(mode, kind, data):
    cfg = data.draw(scenarios(mode, kind))
    trace = run_scenario(cfg)
    record = ClosedLoopDataset(u0=trace["u"], y0=trace["y"], r=trace["r"], ts=cfg.ts)
    phis, ds = regressor_samples(record, cfg.gm.build(cfg.ts))
    *expected, cond = textbook_rls(cfg, phis, ds, trace["deadzone"].astype(bool))
    n = int(np.argmax(cond > COND_LIMIT)) if (cond > COND_LIMIT).any() else len(cond)
    assert n >= 100, f"cond(R) passes {COND_LIMIT:g} at step {n}"
    for column, want in zip(COLUMNS, expected):
        got = trace[column][:n]
        scale = np.abs(got).max()
        worst = np.abs(got - want[:n]).max()
        assert worst <= RTOL * scale, f"{column}: off by {worst:.3g} of max {scale:.3g}"
