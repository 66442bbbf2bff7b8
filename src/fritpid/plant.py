"""Simulated plants for closed-loop experiments.

Two families: linear (any rational filter) and a hysteretic actuator built
from a first-order pressure lag driving a Bouc-Wen hysteresis state.  Both
support an optional input clamp, seeded output noise, and a switch schedule
that rewrites parameters mid-run (load-change experiments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lti import RationalFilter


@dataclass
class BoucWenParams:
    """Hysteretic actuator parameters.

    The drive gain maps the control input to a commanded stroke; a
    first-order lag (time constant tau) produces the actual stroke x, so a
    scheduled gain change reaches the output through the dynamics instead of
    stepping it.  The hysteresis state z follows the Bouc-Wen law on the
    normalized stroke rate dv = dx/sigma,

        dz = dv - beta*|dv|*|z|^(n-1)*z - gamma*dv*|z|^n + bias*|dv|

    and the output is stiffness * (alpha*x + (1-alpha)*sigma*z).  bias != 0
    makes the ascending and descending branches saturate at different levels
    (asymmetric loop).  Bounded for beta > |gamma| and |bias| < 1.
    """

    gain: float = 10.0
    tau: float = 0.4
    stiffness: float = 1.0
    alpha: float = 0.6
    sigma: float = 8.0
    beta: float = 0.5
    gamma: float = 0.3
    n: float = 1.5
    bias: float = 0.2

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("hysteresis exponent n must be >= 1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.sigma <= 0:
            raise ValueError("stroke scale sigma must be positive")


def _validate_schedule(schedule):
    times = [entry["time"] for entry in schedule]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("schedule switch times must be strictly increasing")
    return [dict(entry) for entry in schedule]


class _PlantBase:
    """Saturation, seeded noise, and scheduled parameter switches."""

    def __init__(self, noise_std=0.0, saturation=None, schedule=()):
        if not 0.0 <= noise_std < math.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
        self.noise_std = float(noise_std)
        self.saturation = None if saturation is None else (
            float(saturation[0]),
            float(saturation[1]),
        )
        self.schedule = _validate_schedule(schedule)
        self._pending = list(self.schedule)
        self._rng = np.random.default_rng(0)
        self._last_t = -math.inf

    def reset(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._pending = list(self.schedule)
        self._last_t = -math.inf
        self._reset_state()

    def step(self, u: float, t: float) -> float:
        """Advance one sample; returns the (noisy) output."""
        if t < self._last_t:
            raise ValueError("time must be nondecreasing across plant steps")
        self._last_t = t
        while self._pending and t >= self._pending[0]["time"]:
            self._apply_switch(self._pending.pop(0))
        if self.saturation is not None:
            lo, hi = self.saturation
            u = min(max(u, lo), hi)
        y = self._advance(u)
        if self.noise_std > 0.0:
            y += self.noise_std * self._rng.standard_normal()
        return y

    def _reset_state(self):
        raise NotImplementedError

    def _advance(self, u: float) -> float:
        raise NotImplementedError

    def _apply_switch(self, entry: dict) -> None:
        raise NotImplementedError


class LtiPlant(_PlantBase):
    """Linear plant wrapping a rational filter.

    Schedule entries may carry replacement ``num``/``den`` lists or a
    ``gain_scale`` applied to the numerator; the delay-line state is kept
    across the switch, so the output is continuous.
    """

    def __init__(self, filt: RationalFilter, noise_std=0.0, saturation=None, schedule=()):
        super().__init__(noise_std, saturation, schedule)
        self._template = filt.copy()
        self._filter = filt.copy()
        self._filter.reset()

    def _reset_state(self):
        self._filter = self._template.copy()
        self._filter.reset()

    def _advance(self, u: float) -> float:
        return self._filter.step(u)

    def _apply_switch(self, entry):
        num = entry.get("num", self._filter.num)
        den = entry.get("den", self._filter.den)
        if "gain_scale" in entry:
            num = [c * entry["gain_scale"] for c in num]
        replacement = RationalFilter(num, den)
        if replacement.order != self._filter.order:
            raise ValueError("schedule cannot change the plant order mid-run")
        state = self._filter._w
        self._filter = replacement
        self._filter._w = list(state)


class BoucWenPlant(_PlantBase):
    """Hysteretic actuator: input lag + asymmetric Bouc-Wen loop.

    Schedule entries may set any ``BoucWenParams`` field by name or apply
    ``gain_scale``/``tau_scale`` factors (a load change is roughly "less
    gain, slower stroke").
    """

    def __init__(self, params: BoucWenParams | None = None, ts: float = 0.01,
                 noise_std=0.0, saturation=None, schedule=()):
        super().__init__(noise_std, saturation, schedule)
        if ts <= 0:
            raise ValueError("ts must be positive")
        self.params = params if params is not None else BoucWenParams()
        self.ts = float(ts)
        self._x = 0.0
        self._z = 0.0

    def _reset_state(self):
        self._x = 0.0
        self._z = 0.0

    def _advance(self, u: float) -> float:
        p = self.params
        a = math.exp(-self.ts / p.tau)
        x_new = a * self._x + (1.0 - a) * p.gain * u
        dv = (x_new - self._x) / p.sigma
        z = self._z
        zn = abs(z) ** (p.n - 1.0) * z
        zn_abs = abs(z) ** p.n
        dz = dv - p.beta * abs(dv) * zn - p.gamma * dv * zn_abs + p.bias * abs(dv)
        self._x = x_new
        self._z = z + dz
        return p.stiffness * (p.alpha * self._x + (1.0 - p.alpha) * p.sigma * self._z)

    def _apply_switch(self, entry):
        values = {k: v for k, v in entry.items() if k in BoucWenParams.__dataclass_fields__}
        merged = {f: getattr(self.params, f) for f in BoucWenParams.__dataclass_fields__}
        merged.update(values)
        if "gain_scale" in entry:
            merged["gain"] *= entry["gain_scale"]
        if "tau_scale" in entry:
            merged["tau"] *= entry["tau_scale"]
        self.params = BoucWenParams(**merged)


def quasi_static_sweep(plant: BoucWenPlant, u_max: float = 10.0, samples_per_leg: int = 4000):
    """Slow 0 -> u_max -> 0 ramp; returns (u, y) for loop-shape checks."""
    plant.reset(seed=0)
    up = np.linspace(0.0, u_max, samples_per_leg)
    down = np.linspace(u_max, 0.0, samples_per_leg)
    u = np.concatenate([up, down])
    y = np.array([plant.step(float(ui), k * plant.ts) for k, ui in enumerate(u)])
    return u, y
