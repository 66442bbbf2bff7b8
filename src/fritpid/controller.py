"""Linearly parameterized PID controller.

The control law is u(k) = theta^T * basis(e)(k) with theta = [kp, ki, kd] and
basis filters beta(z) = [1, ts/(1 - z^-1), (1 - z^-1)/ts], held by `PidBasis`
as two state floats (integrator, differencer).  Because the basis states do
not depend on theta, the gains can be swapped every sample (adaptive use)
without disturbing the integrator or differencer.
"""

from __future__ import annotations

import math

from .lti import RationalFilter


def as_gains(theta) -> tuple[float, float, float]:
    """Validate a [kp, ki, kd] gain vector; returns it as three finite floats."""
    try:
        kp, ki, kd = theta
        kp, ki, kd = float(kp), float(ki), float(kd)
    except (TypeError, ValueError):
        raise ValueError(f"expected 3 gains [kp, ki, kd], got {theta!r}") from None
    if not (math.isfinite(kp) and math.isfinite(ki) and math.isfinite(kd)):
        raise ValueError(f"gains must be finite, got {[kp, ki, kd]}")
    return kp, ki, kd


class PidBasis:
    """The three basis filters applied to a shared scalar input stream."""

    def __init__(self, ts: float):
        if not 0.0 < ts < math.inf:  # written so that NaN fails too
            raise ValueError(f"sampling time must be positive and finite, got {ts}")
        self.ts = float(ts)
        self._d0, self._d1 = 1.0 / self.ts, -1.0 / self.ts  # differencer numerator
        self._integ = 0.0  # integrator delay line
        self._diff = 0.0  # differencer delay line

    def step(self, x: float) -> tuple[float, float, float]:
        """Advance all three filters one sample; returns (x, integ, diff).

        The filters' difference equations with their zero coefficients kept,
        so the bits (signed zeros included) are those of `RationalFilter`.
        """
        x = 1.0 * x
        integ = self.ts * x + self._integ
        self._integ = 0.0 * x - (-1.0) * integ
        diff = self._d0 * x + self._diff
        self._diff = self._d1 * x - 0.0 * diff
        return x, integ, diff


class PidController:
    """Positional-form PID; ``gains`` is checked when built, then may be swapped every sample."""

    def __init__(self, gains, ts: float):
        self.gains = as_gains(gains)
        self.basis = PidBasis(ts)

    def step(self, e: float) -> float:
        """One control sample from one tracking-error sample."""
        kp, ki, kd = self.gains
        x, integ, diff = self.basis.step(e)
        return kp * x + ki * integ + kd * diff


def pid_filter(gains, ts: float) -> RationalFilter:
    """The combined controller as a single rational filter over 1 - z^-1.

    num[0] = kp + ki*ts + kd/ts, so the filter is biproper (invertible)
    exactly when kp*ts + ki*ts**2 + kd != 0.
    """
    kp, ki, kd = as_gains(gains)
    num = [kp + ki * ts + kd / ts, -(kp + 2.0 * kd / ts), kd / ts]
    return RationalFilter(num, [1.0, -1.0])
