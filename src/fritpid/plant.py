"""Simulated plants for closed-loop experiments.

Two families: linear (any rational filter) and a hysteretic actuator built
from a first-order pressure lag driving a Bouc-Wen hysteresis state.  Both
support an optional input clamp, seeded output noise, and a switch schedule
that moves to other parameters mid-run (load-change experiments).
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .lti import RationalFilter


@dataclass(frozen=True)
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
    Frozen: a plant caches constants derived from its parameters.
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
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value == 0.0 and name in ("gain", "stiffness"):  # exactly 0: u never reaches y
                raise ValueError(f"{name} must be nonzero, got {value}")
        # written as `not ... ok` so that NaN fails every check
        if not self.n >= 1:
            raise ValueError(f"hysteresis exponent n must be >= 1, got {self.n}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.sigma > 0:
            raise ValueError(f"stroke scale sigma must be positive, got {self.sigma}")
        if not self.beta > abs(self.gamma):
            raise ValueError(
                f"beta must exceed |gamma| for a bounded loop, got beta={self.beta}, "
                f"gamma={self.gamma}"
            )


def saturation_bounds(saturation):
    """None, or exactly two numbers (lo, hi) with lo < hi, as floats."""
    if saturation is None:
        return None
    if not (
        isinstance(saturation, (list, tuple))
        and len(saturation) == 2
        and all(isinstance(b, (int, float)) and not isinstance(b, bool) for b in saturation)
    ):
        raise ValueError(f"saturation must be two numbers [lo, hi], got {saturation!r}")
    lo, hi = float(saturation[0]), float(saturation[1])
    if not lo < hi:
        raise ValueError(f"saturation needs lo < hi, got [{lo}, {hi}]")
    return lo, hi


def _validate_schedule(schedule, keys):
    """Copies of the switch entries: known keys of their table's types, finite increasing times."""
    for entry in schedule:
        if not isinstance(entry, dict) or "time" not in entry:
            raise ValueError(f"schedule entry {entry!r} has no time")
        if not entry.keys() <= keys.keys():
            raise ValueError(
                f"schedule entry {entry!r} has unknown keys {sorted(entry.keys() - keys)}; "
                f"allowed: {sorted(keys)}"
            )
        for key, value in entry.items():  # a number is never a bool, alone or in a list
            listed = keys[key] is list
            if isinstance(value, bool) or not isinstance(value, keys[key]) or listed and not all(
                    isinstance(v, (int, float)) and type(v) is not bool for v in value):
                want = "a list of numbers" if listed else "a number"
                raise ValueError(f"schedule entry {entry!r}: {key} must be {want}, got {value!r}")
        if not math.isfinite(entry["time"]):
            raise ValueError(f"schedule time must be finite, got {entry['time']}")
    if any(b["time"] <= a["time"] for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule switch times must be strictly increasing")
    return [dict(entry) for entry in schedule]


# standard normals drawn per block of plant noise.  numpy fills an array
# from the same stream that scalar draws consume, so a plant that uses one
# value of the block per step adds exactly the noise of one
# ``rng.standard_normal()`` call per step.  A larger block is no faster per
# value and holds more boxed floats.
NOISE_BLOCK = 256


class _PlantBase:
    """Saturation, seeded noise, and parameter stages switched on a schedule."""

    SCHEDULE_KEYS = {"time": (int, float)}  # what a switch entry may set, and its types

    def __init__(self, initial, noise_std=0.0, saturation=None, schedule=()):
        if not 0.0 <= noise_std < math.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
        self.noise_std = float(noise_std)
        self.saturation = saturation_bounds(saturation)
        self.schedule = _validate_schedule(schedule, self.SCHEDULE_KEYS)
        # stage i follows switch i-1, stage 0 a switch that changes nothing: all are checked
        self._stages = [self._switched(initial, {})]
        for entry in self.schedule:
            try:
                self._stages.append(self._switched(self._stages[-1], entry))
            except ValueError as exc:
                raise ValueError(f"schedule entry {entry!r}: {exc}") from exc
        self._times = [entry["time"] for entry in self.schedule] + [math.inf]
        self.reset()

    def reset(self, seed: int = 0) -> None:
        """Restart from the initial state and stage, with the noise reseeded."""
        # the generator is made at the first draw: numpy imports numpy.random
        # (~12 ms) on first use, which a noise-free plant need not pay
        self._seed, self._rng = seed, None
        self._noise = iter(())  # the rest of the current block
        self._next_switch = self._times[0]
        self._last_t = -math.inf
        self._start(self._stages[0])

    def step(self, u: float, t: float) -> float:
        """Advance one sample; returns the (noisy) output."""
        if t < self._last_t:
            raise ValueError("time must be nondecreasing across plant steps")
        self._last_t = t
        if t >= self._next_switch:
            # stage = the number of switches due by t (the inf sentinel never is)
            stage = bisect_right(self._times, t, hi=len(self.schedule))
            self._next_switch = self._times[stage]
            self._use(self._stages[stage])
        if self.saturation is not None:
            lo, hi = self.saturation
            u = min(max(u, lo), hi)
        y = self._advance(u)
        if self.noise_std > 0.0:
            z = next(self._noise, None)
            if z is None:
                if self._rng is None:
                    self._rng = np.random.default_rng(self._seed)
                self._noise = iter(self._rng.standard_normal(NOISE_BLOCK).tolist())
                z = next(self._noise)
            y += self.noise_std * z
        return y


class LtiPlant(_PlantBase):
    """Linear plant wrapping a rational filter.

    Schedule entries may carry replacement ``num``/``den`` lists or a
    ``gain_scale`` applied to the numerator; the delay-line state is kept
    across the switch, so the output is continuous.
    """

    SCHEDULE_KEYS = {"time": (int, float), "num": list, "den": list, "gain_scale": (int, float)}

    @staticmethod
    def _switched(filt, entry):
        num = [c * entry.get("gain_scale", 1.0) for c in entry.get("num", filt.num)]
        stage = RationalFilter(num, entry.get("den", filt.den))
        if stage.num == [0.0]:  # trimmed, so [], [0, 0] and a gain_scale of 0 alike
            raise ValueError("num is all zeros, so u never reaches y")
        if stage.order != filt.order:
            raise ValueError("schedule cannot change the plant order mid-run")
        return stage

    def _start(self, filt):
        filt.reset()
        self._filter, self._advance = filt, filt.step

    def _use(self, filt):
        filt._w = self._filter._w  # the live delay line carries on
        self._filter, self._advance = filt, filt.step  # `step` steps the live filter


class BoucWenPlant(_PlantBase):
    """Hysteretic actuator: input lag + asymmetric Bouc-Wen loop.

    Schedule entries may set any ``BoucWenParams`` field by name or apply
    ``gain_scale``/``tau_scale`` factors (a load change is roughly "less
    gain, slower stroke").  ``params`` holds the current stage's parameters;
    ``reset`` restores the ones the plant was built with.
    """

    SCHEDULE_KEYS = dict.fromkeys(
        ["time", "gain_scale", "tau_scale", *BoucWenParams.__dataclass_fields__], (int, float)
    )

    def __init__(self, params: BoucWenParams, ts: float = 0.01,
                 noise_std=0.0, saturation=None, schedule=()):
        if not 0.0 < ts < math.inf:  # written so that NaN fails too
            raise ValueError(f"ts must be positive and finite, got {ts}")
        self.ts = float(ts)
        super().__init__(params, noise_std, saturation, schedule)

    @staticmethod
    def _switched(params, entry):
        merged = {f: getattr(params, f) for f in BoucWenParams.__dataclass_fields__}
        merged.update((k, v) for k, v in entry.items() if k in merged)
        if "gain_scale" in entry:
            merged["gain"] *= entry["gain_scale"]
        if "tau_scale" in entry:
            merged["tau"] *= entry["tau_scale"]
        return BoucWenParams(**merged)

    def _start(self, params):
        self._use(params)
        self._x = self._z = 0.0

    def _use(self, p):
        # per-step constants, each grouped as `_advance` associates it, so
        # the output is the same to the bit as evaluating the law in full
        a = math.exp(-self.ts / p.tau)
        self.params = p
        self._constants = (
            a, (1.0 - a) * p.gain, p.sigma, p.n - 1.0, p.n, p.beta, p.gamma,
            p.bias, p.stiffness, p.alpha, (1.0 - p.alpha) * p.sigma,
        )

    def _advance(self, u: float) -> float:
        a, drive, sigma, n1, n, beta, gamma, bias, stiffness, alpha, hyst = self._constants
        x, z = self._x, self._z
        # x_new = a*x + (1-a)*gain*u, output = stiffness*(alpha*x + (1-alpha)*sigma*z)
        x_new = a * x + drive * u
        dv = (x_new - x) / sigma
        z_abs, dv_abs = abs(z), abs(dv)
        dz = dv - beta * dv_abs * (z_abs ** n1 * z) - gamma * dv * z_abs ** n + bias * dv_abs
        self._x = x_new
        self._z = z = z + dz
        return stiffness * (alpha * x_new + hyst * z)
