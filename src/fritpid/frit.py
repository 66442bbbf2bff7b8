"""Offline FRIT: tune PID gains from one closed-loop experiment.

Given recorded (u0, y0, r) and a reference model Gm, the fictitious reference

    r_tilde(theta, k) = C(theta)^-1 u0(k) + y0(k)

is the reference that would have produced the recorded data under C(theta).
The model-reference cost sum[y0 - Gm r_tilde]^2 is nonconvex in theta, so the
tuner solves its linear-regression surrogate sum[phi^T theta - d]^2 by batch
least squares instead and keeps the nonconvex cost as an evaluation metric.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .adaptive import NumericalBreakdownError
from .controller import PidBasis, as_gains, pid_filter
from .csvio import read_columns, write_columns
from .lti import ReferenceModel, one_minus

PROPERNESS_TOL = 1e-9
CONDITION_LIMIT = 1e12
TRANSIENT_SKIP = 10  # samples dropped from cost sums to suppress filter start-up artifacts


class InverseNotProperError(ValueError):
    """C(theta) has a (near-)zero constant numerator coefficient, so its
    exact inverse is not realizable."""


class UnstableInverseWarning(UserWarning):
    """C(theta)^-1 has a pole outside the unit circle; the fictitious
    reference is still returned but may grow along the record."""


class RankDeficientError(NumericalBreakdownError):
    """The regressor normal matrix is (near-)singular or overflows: the
    experiment does not carry enough information to tune three gains."""


@dataclass
class ClosedLoopDataset:
    """One recorded closed-loop experiment (input, output, reference)."""

    u0: np.ndarray
    y0: np.ndarray
    r: np.ndarray
    ts: float

    def __post_init__(self):
        self.u0 = np.asarray(self.u0, dtype=float).reshape(-1)
        self.y0 = np.asarray(self.y0, dtype=float).reshape(-1)
        self.r = np.asarray(self.r, dtype=float).reshape(-1)
        n = len(self.u0)
        if n < 2 or len(self.y0) != n or len(self.r) != n:
            raise ValueError("u0, y0, r must have equal length >= 2")
        if not (
            np.all(np.isfinite(self.u0))
            and np.all(np.isfinite(self.y0))
            and np.all(np.isfinite(self.r))
        ):
            raise ValueError("dataset contains non-finite samples")
        if not 0.0 < self.ts < math.inf:
            raise ValueError(f"ts must be positive and finite, got {self.ts}")

    def __len__(self) -> int:
        return len(self.u0)

    def save(self, path) -> None:
        """Write `t,r,u,y` rows, t = k * ts as the run trace writes it."""
        write_columns(
            path,
            ("t", "r", "u", "y"),
            (np.arange(len(self)) * self.ts, self.r, self.u0, self.y0),
            ("%r",) * 4,
        )

    @classmethod
    def load(cls, path) -> "ClosedLoopDataset":
        """Read the `t,r,u,y` columns of a file, such as `save` or a run trace writes, with
        ts = t[1] - t[0]; a `ValueError` names the file and what is malformed."""
        t, r, u, y = read_columns(path, ("t", "r", "u", "y"))
        ts = t[1] - t[0] if len(t) > 1 else math.nan
        try:
            data = cls(u0=u, y0=y, r=r, ts=ts)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        with np.errstate(invalid="ignore", over="ignore"):  # a step through inf is uneven too
            if not np.all(np.abs(np.diff(t) - ts) <= 1e-6 * ts):
                raise ValueError(f"{path}: t is not evenly spaced by t[1] - t[0] = {ts!r}")
        return data


def fictitious_reference(theta, data: ClosedLoopDataset) -> np.ndarray:
    """r_tilde(theta, k) = C(theta)^-1 u0(k) + y0(k)."""
    kp, ki, kd = as_gains(theta)
    ts = data.ts
    if abs(kp * ts + ki * ts**2 + kd) <= PROPERNESS_TOL:
        raise InverseNotProperError(
            "kp*ts + ki*ts^2 + kd is (near) zero: controller inverse is improper"
        )
    c = pid_filter(theta, ts)
    zero_mags = [abs(z) for z in c.zeros()]
    if zero_mags and max(zero_mags) > 1.0 + 1e-12:
        warnings.warn(
            f"controller inverse is unstable (zero magnitude {max(zero_mags):.4f})",
            UnstableInverseWarning,
            stacklevel=2,
        )
    return np.asarray(c.inverse().filter(data.u0)) + data.y0


def frit_cost(theta, data: ClosedLoopDataset, gm: ReferenceModel) -> float:
    """Model-reference cost sum[y0 - Gm r_tilde]^2 over the dataset.

    Evaluation metric only; `batch_tune` minimizes the convex surrogate.
    """
    r_tilde = fictitious_reference(theta, data)
    ref = np.asarray(gm.filter.filter(r_tilde))
    resid = data.y0[TRANSIENT_SKIP:] - ref[TRANSIENT_SKIP:]
    if not np.all(np.isfinite(resid)):
        return math.inf
    with np.errstate(over="ignore"):  # a finite residual whose squares overflow costs inf
        return float(resid @ resid)


def regressor_samples(data: ClosedLoopDataset, gm: ReferenceModel) -> tuple[np.ndarray, np.ndarray]:
    """Batch (Phi, d) arrays from a dataset, one row per sample."""
    # RegressorGenerator's stages, each over the whole record: the same floats
    rows = map(PidBasis(data.ts).step, one_minus(gm.filter).filter(data.y0))
    phis = np.fromiter(chain.from_iterable(rows), float, 3 * len(data)).reshape(-1, 3)
    return phis, np.array(gm.filter.filter(data.u0))


def batch_tune(data: ClosedLoopDataset, gm: ReferenceModel) -> np.ndarray:
    """Gains minimizing the convex surrogate, by normal equations, transient samples dropped."""
    phis, ds = regressor_samples(data, gm)
    phis, ds = phis[TRANSIENT_SKIP:], ds[TRANSIENT_SKIP:]
    with np.errstate(over="ignore", invalid="ignore"):
        A = phis.T @ phis
    if not np.isfinite(A).all():  # before cond, whose LAPACK call would complain on fd 2
        raise RankDeficientError("regressor normal matrix is not finite")
    if np.linalg.cond(A) >= CONDITION_LIMIT:
        raise RankDeficientError(
            "regressor normal matrix is ill-conditioned: data is not informative"
        )
    return np.linalg.solve(A, phis.T @ ds)

