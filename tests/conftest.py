import sys
from pathlib import Path

import numpy as np
import pytest

from fritpid.controller import PidController
from fritpid.frit import ClosedLoopDataset
from fritpid.lti import ReferenceModel

# the tests of scripts/*.py import them by name
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

TS = 0.01


def matched_loop_data(theta_star, n=3000, ts=TS, gm=None, seed=3):
    """Closed-loop records whose loop exactly realizes the reference model.

    Simulates the loop y = Gm r, u = C(theta_star)(r - y) from zero state;
    by construction d(k) = phi(k)^T theta_star holds sample for sample, and
    the fictitious reference at theta_star reproduces r.
    """
    if gm is None:
        gm = ReferenceModel.first_order(ts)
    rng = np.random.default_rng(seed)
    t = np.arange(n) * ts
    r = (
        np.where((t % 20.0) < 10.0, 1.0, 0.3)
        + 0.1 * np.sin(2 * np.pi * 0.7 * t)
        + 0.05 * rng.standard_normal(n)
    )
    y0 = np.asarray(gm.filter.filter(r))
    ctrl = PidController(theta_star, ts)
    u0 = np.array([ctrl.step(float(ri - yi)) for ri, yi in zip(r, y0)])
    return ClosedLoopDataset(u0=u0, y0=y0, r=r, ts=ts)


@pytest.fixture
def gm_default():
    return ReferenceModel.first_order(TS)
