"""Scenario-driven closed-loop runner.

A scenario JSON declares the reference signal, reference model, estimator,
plant, horizon, and evaluation window; `run_scenario` wires them into the
adaptive loop (controller -> plant -> regressor -> estimator) and records a
per-step trace plus MAE / maxAE summary metrics.  Runs are reproducible:
the same config and seed give a byte-identical trace file.
"""

# no `from __future__ import annotations`: `_load` reads the annotations of
# the spec dataclasses as types

import json
import math
import struct
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from types import UnionType

import numpy as np

from .adaptive import Estimator, NumericalBreakdownError, RegressorGenerator
from .controller import PidController, as_gains
from .csvio import read_columns, write_columns
from .lti import RationalFilter, ReferenceModel
from .plant import BoucWenParams, BoucWenPlant, LtiPlant

TRACE_COLUMNS = [
    "k", "t", "r", "y", "u", "e", "ehat",
    "kp", "ki", "kd", "pmin", "pmax", "deadzone",
]

ESTIMATOR_MODES = ("fixed", *Estimator.MODES)

# cap on round(duration / ts): the trace holds 13 float64 = 104 B per step,
# so the cap keeps it at 1.04 GB or less
MAX_STEPS = 10_000_000

_JSON_TYPES = {float: "a number", int: "an integer", str: "a string", list: "a list",
               dict: "a JSON object"}


class ConfigError(ValueError):
    """Scenario configuration failed validation."""


def _load(tp, value, where: str = ""):
    """`value`, from JSON, checked against the annotation `tp`: the scenario schema.

    A spec dataclass is built from an object with no unknown keys and, if it has a
    `KINDS` table (kind -> the fields that only some kinds read), no key that only
    other kinds read; a float takes a JSON integer too and becomes a float; a bool is
    never a number.  A mismatch, or a ValueError of the spec's own check, is a
    ConfigError that names the field by its path `where`.
    """
    if isinstance(tp, UnionType):  # the arm of the value's JSON type, else the first
        arms = tp.__args__
        arm = next((a for a in arms if isinstance(value, getattr(a, "__origin__", a))), arms[0])
        return _load(arm, value, where)
    fields = getattr(tp, "__dataclass_fields__", None)  # of a spec dataclass
    kind = dict if fields else getattr(tp, "__origin__", tp)  # or NoneType, for a `| None` arm
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{where or 'a scenario'} must be {_JSON_TYPES[kind]}, got {value!r}")
    if fields:
        unknown = value.keys() - fields.keys()
        if unknown:
            raise ConfigError(f"unknown {where or 'scenario'} fields {sorted(unknown)}")
        prefix = f"{where}." if where else ""
        try:
            spec = tp(**{key: _load(fields[key].type, v, prefix + key)
                         for key, v in value.items()})
        except ConfigError:
            raise
        except ValueError as exc:  # e.g. BoucWenParams.__post_init__
            raise ConfigError(f"{where}: {exc}") from exc
        own = getattr(tp, "KINDS", {}).get(getattr(spec, "kind", None))  # unknown: build names it
        if own is not None and (foreign := value.keys() & set().union(*tp.KINDS.values()) - own):
            raise ConfigError(f"{spec.kind} {where} does not read {sorted(foreign)}")
        return spec
    if kind is list:
        return [_load(tp.__args__[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if kind is dict:  # JSON object keys are strings
        return {key: _load(tp.__args__[1], v, f"{where}.{key}") for key, v in value.items()}
    if kind is float:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{where} is an integer too large for a float") from None
    return value


@dataclass
class ReferenceSpec:
    KINDS = {"constant": {"offset"}, "sine": {"amplitude", "offset", "frequency"},
             "square": {"amplitude", "offset", "period"}, "staircase": {"levels", "interval"}}
    kind: str = "constant"
    amplitude: float = 1.0
    offset: float = 0.0
    frequency: float = 0.1
    period: float = 40.0
    levels: list[float] = field(default_factory=lambda: [20.0, 35.0, 50.0, 65.0])
    interval: float = 20.0

    def signal(self, duration: float):
        """The reference r(t) on [0, duration] as a function of t; first checks that
        each field its kind reads is finite, so that r(t) is finite there."""
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown reference kind {self.kind!r}")
        for name in sorted(self.KINDS[self.kind]):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ConfigError(f"{self.kind} reference {name} must be finite, got {value}")
        amplitude, offset, frequency, period, interval = (
            self.amplitude, self.offset, self.frequency, self.period, self.interval)
        levels = list(self.levels)
        if self.kind == "constant":
            return lambda t: offset
        if self.kind in ("sine", "square") and not math.isfinite(abs(offset) + abs(amplitude)):
            raise ConfigError(f"{self.kind} reference |offset| + |amplitude| overflows, "
                              f"got offset={offset:.6g}, amplitude={amplitude:.6g}")
        if self.kind == "sine":
            w = 2.0 * math.pi * frequency
            if not math.isfinite(w * duration):
                raise ConfigError(f"sine reference 2*pi*frequency*duration overflows, "
                                  f"got frequency={frequency:.6g}, duration={duration:.6g}")
            return lambda t: offset + amplitude * math.sin(w * t)
        if self.kind == "square":
            if not period > 0.0:
                raise ConfigError(f"square reference period must be positive, got {period}")
            half = period / 2.0
            return lambda t: offset + (amplitude if (t % period) < half else -amplitude)
        if not levels:  # staircase
            raise ConfigError("staircase reference levels must not be empty")
        if not interval > 0.0:
            raise ConfigError(f"staircase reference interval must be positive, got {interval}")
        last = len(levels) - 1
        return lambda t: levels[int(min(t // interval, last))]  # t // interval may be inf


@dataclass
class GmSpec:
    KINDS = {"explicit": {"num", "den"}, "first_order": {"tau", "dc_gain", "discretization"}}
    tau: float = 1.0
    dc_gain: float = 1.0
    discretization: str = "euler"
    num: list[float] | None = None
    den: list[float] | None = None

    kind = property(lambda s: "first_order" if s.num is None and s.den is None else "explicit")

    def build(self, ts: float) -> ReferenceModel:
        if self.kind == "explicit":
            if self.num is None or self.den is None:
                raise ConfigError("explicit gm needs both num and den")
            return ReferenceModel(RationalFilter(self.num, self.den))
        return ReferenceModel.first_order(
            ts, tau=self.tau, dc_gain=self.dc_gain, discretization=self.discretization
        )


@dataclass
class EstimatorSpec:
    mode: str = "df"
    mu: float = 0.9
    epsilon: float = 1e-3
    r0: float = 0.01
    r_inf: float = 0.01
    theta0: list[float] = field(default_factory=lambda: [0.1, 0.1, 0.01])

    def build(self):
        if self.mode == "fixed":
            as_gains(self.theta0)  # the gains the whole run keeps
            return None
        return Estimator(**asdict(self))  # the fields are Estimator's parameters


@dataclass
class PlantSpec:
    KINDS = {"lti": {"num", "den"}, "bouc_wen": {"params"}}
    kind: str = "lti"
    num: list[float] = field(default_factory=lambda: [0.0, 0.0095])
    den: list[float] = field(default_factory=lambda: [1.0, -0.99])
    params: BoucWenParams = field(default_factory=BoucWenParams)
    noise_std: float = 0.0
    saturation: list[float] | None = None
    schedule: list[dict[str, float | list[float]]] = field(default_factory=list)

    def build(self, ts: float):
        if self.kind == "lti":
            return LtiPlant(RationalFilter(self.num, self.den), noise_std=self.noise_std,
                            saturation=self.saturation, schedule=self.schedule)
        if self.kind == "bouc_wen":
            return BoucWenPlant(self.params, ts=ts, noise_std=self.noise_std,
                                saturation=self.saturation, schedule=self.schedule)
        raise ConfigError(f"unknown plant kind {self.kind!r}")


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    duration: float = 80.0
    ts: float = 0.01
    reference: ReferenceSpec = field(default_factory=ReferenceSpec)
    gm: GmSpec = field(default_factory=GmSpec)
    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)
    plant: PlantSpec = field(default_factory=PlantSpec)
    trials: int = 1
    seeds: list[int] | None = None
    evaluation_window: list[float] | None = None  # None: [0, duration]

    def __post_init__(self):
        if self.evaluation_window is None:
            self.evaluation_window = [0.0, self.duration]
        self.build()  # a bad scenario fails when it loads

    def build(self, seed: int | None = None):
        """One run's parts: (seed, reference signal, reference model, plant
        reset to the seed, estimator or None); seed None is the first trial
        seed.  Every bad value raises ConfigError here, before any step."""
        if not self.name:
            raise ConfigError("name must not be empty")
        if not 0.0 < self.duration < math.inf:
            raise ConfigError(f"duration must be positive and finite, got {self.duration}")
        if not 0.0 < self.ts < math.inf:
            raise ConfigError(f"ts must be positive and finite, got {self.ts}")
        # 1 <= round(duration / ts) <= MAX_STEPS, on a ratio that may overflow to inf
        if not 0.5 < self.duration / self.ts <= MAX_STEPS + 0.5:
            raise ConfigError(
                f"duration / ts = {self.duration / self.ts:.6g} steps, "
                f"must round to between 1 and {MAX_STEPS}"
            )
        if len(self.evaluation_window) != 2:
            raise ConfigError("evaluation_window must be [t_start, t_end]")
        lo, hi = self.evaluation_window
        if not (0.0 <= lo < hi <= self.duration + 1e-9):
            raise ConfigError("evaluation_window must lie inside [0, duration]")
        # some step time j*ts (j < n_steps) must lie in [lo, hi); rounding puts the
        # first j*ts >= lo within one step of lo/ts
        n_steps, k = round(self.duration / self.ts), math.ceil(lo / self.ts)
        if not any(lo <= j * self.ts < hi for j in (k - 1, k, k + 1) if 0 <= j < n_steps):
            raise ConfigError(f"evaluation_window {self.evaluation_window} holds no step time")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seeds is not None and any(s < 0 for s in self.seeds):
            raise ConfigError(f"seeds must be integers >= 0, got {self.seeds}")
        seeds = self.trial_seeds()  # fewer seeds than trials fails here
        seed = seeds[0] if seed is None else seed
        if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
        reference = self.reference.signal(self.duration)
        try:
            section = "gm"
            gm = self.gm.build(self.ts)
            section = "estimator"
            estimator = self.estimator.build()
            section = f"{self.plant.kind} plant"
            plant = self.plant.build(self.ts)
        except ConfigError:  # names what is wrong itself, e.g. an unknown plant kind
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {section}: {exc}") from exc
        plant.reset(seed=seed)
        return seed, reference, gm, plant, estimator

    def trial_seeds(self) -> list[int] | range:
        if self.seeds is not None:
            if len(self.seeds) < self.trials:
                raise ConfigError("fewer seeds than trials")
            return self.seeds[: self.trials]
        return range(self.trials)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """The scenario of a JSON object, typed by the field annotations."""
        return _load(cls, raw)

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except ValueError as exc:  # not JSON, or not a scenario
            raise ConfigError(f"{path}: {exc}") from exc


class RunTrace:
    """Per-step record of one closed-loop run plus summary metrics."""

    def __init__(self, columns: dict, window: tuple[float, float], name: str, seed: int):
        self.columns = columns
        self.window = window
        self.name = name
        self.seed = seed

    def __getitem__(self, key: str) -> np.ndarray:
        return self.columns[key]

    def __len__(self) -> int:
        return len(self.columns["k"])

    def window_mask(self) -> np.ndarray:
        t = self.columns["t"]
        return (t >= self.window[0]) & (t < self.window[1])

    @property
    def abs_error(self) -> np.ndarray:
        return np.abs(self.columns["r"] - self.columns["y"])

    @property
    def mae(self) -> float:
        return float(np.mean(self.abs_error[self.window_mask()]))

    @property
    def max_ae(self) -> float:
        return float(np.max(self.abs_error[self.window_mask()]))

    def summary(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "steps": len(self),
            "window": list(self.window),
            "mae": self.mae,
            "max_ae": self.max_ae,
            "theta_final": [float(self.columns[g][-1]) for g in ("kp", "ki", "kd")],
        }

    def save_csv(self, path) -> None:
        """Write the trace: `k` and `deadzone` as integers, other columns as `repr` floats."""
        write_columns(
            path,
            TRACE_COLUMNS,
            [self.columns[c] for c in TRACE_COLUMNS],
            ["%d"] + ["%r"] * (len(TRACE_COLUMNS) - 2) + ["%d"],
        )

    @classmethod
    def load_csv(cls, path, window=(0.0, math.inf), name="trace", seed=0) -> "RunTrace":
        cols = read_columns(path, TRACE_COLUMNS)
        columns = {c: np.array(v) for c, v in zip(TRACE_COLUMNS, cols)}
        trace = cls(columns, tuple(window), name, seed)
        if not trace.window_mask().any():
            raise ValueError(f"{path}: no trace row falls in the window {list(window)}")
        return trace


def run_scenario(cfg: ScenarioConfig, seed: int | None = None) -> RunTrace:
    """Execute one closed-loop trial and return its trace.

    Per step: read r(k), form e(k) = r(k) - y(k) from the measured output,
    apply u(k) from the current gains, feed the (y(k), u(k)) sample to the
    regressor and estimator (the next step uses the updated gains), then
    advance the plant to produce y(k+1).
    """
    seed, reference, gm, plant, estimator = cfg.build(seed)
    n_steps = int(round(cfg.duration / cfg.ts))
    ts = cfg.ts
    controller = PidController(cfg.estimator.theta0, ts)
    regressor = RegressorGenerator(gm.filter, ts)

    rows = bytearray()  # the trace, one packed row per step
    pack = struct.Struct(f"{len(TRACE_COLUMNS)}d").pack
    kp, ki, kd = controller.gains
    pmin = pmax = math.nan
    deadzone = False
    y = 0.0
    control, regress, advance = controller.step, regressor.step, plant.step
    if estimator is not None:
        update, eigenvalues = estimator.update, estimator.eigenvalues
    try:
        for k in range(n_steps):
            t = k * ts
            r = reference(t)
            e = r - y
            u = control(e)
            phi, d = regress(y, u)
            if estimator is None:
                ehat = phi[0] * kp + phi[1] * ki + phi[2] * kd - d
            else:
                ehat = update(phi, d)
                controller.gains = (kp, ki, kd) = estimator.gains
                pmin, pmax = eigenvalues()
                deadzone = estimator.deadzone_active
            rows += pack(k, t, r, y, u, e, ehat, kp, ki, kd, pmin, pmax, deadzone)
            y = advance(u, t)
    # a float power overflows with OverflowError where a product gives inf
    except (NumericalBreakdownError, OverflowError) as exc:
        raise NumericalBreakdownError(f"step {k} (t={t:.3f}s): {exc}") from exc

    columns = dict(zip(TRACE_COLUMNS, np.frombuffer(rows).reshape(n_steps, -1).T))
    finite = np.isfinite(columns["y"]) & np.isfinite(columns["u"])
    if not finite.all():  # a fixed-gain loop has no estimator to stop it
        k = int(finite.argmin())
        y, u = float(columns["y"][k]), float(columns["u"][k])
        raise NumericalBreakdownError(f"step {k} (t={k * ts:.3f}s): diverged to y={y}, u={u}")
    window = (float(cfg.evaluation_window[0]), float(cfg.evaluation_window[1]))
    return RunTrace(columns, window, cfg.name, seed)


def _variant(base: ScenarioConfig, label: str, **changes) -> ScenarioConfig:
    """A copy of a scenario named `<name>/<label>` whose estimator fields differ
    by `changes`; it is checked like a loaded scenario."""
    estimator = replace(base.estimator, **changes)
    return replace(base, name=f"{base.name}/{label}", estimator=estimator)


def method_variants(base: ScenarioConfig, methods=ESTIMATOR_MODES) -> list[ScenarioConfig]:
    """Copies of a scenario differing only in estimator mode."""
    return [_variant(base, mode, mode=mode) for mode in methods]


def _spread(values: list[float]) -> tuple[float, float, float, float, float]:
    """(min, q1, median, q3, max) of `values`, bit for bit as numpy's default
    (`linear`) `np.percentile` and `np.median` give them."""
    s, n = sorted(values), len(values)

    def percentile(q: float) -> float:  # numpy's virtual index and `_lerp`
        i, t = int((n - 1) * q), (n - 1) * q % 1
        a, b = s[i], s[min(i + 1, n - 1)]
        return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)

    median = s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2
    return s[0], percentile(0.25), median, percentile(0.75), s[-1]


def _errors(trace: RunTrace) -> tuple[float, float]:
    return trace.mae, trace.max_ae


def compare_methods(cfgs: list[ScenarioConfig]) -> list[dict]:
    """Run each scenario over its trials; summarize the MAE distribution.

    Returns one row per scenario with min/q1/median/q3/max of MAE and
    maxAE over the evaluation window.  Each trial's trace is reduced to its
    (MAE, maxAE) before the next trial runs, so one trace is held at a time.
    """
    table = []
    for cfg in cfgs:
        errors = [_errors(run_scenario(cfg, seed=seed)) for seed in cfg.trial_seeds()]
        mae = _spread([e[0] for e in errors])
        table.append({
            "name": cfg.name,
            "mode": cfg.estimator.mode,
            "trials": cfg.trials,
            **dict(zip(("mae_min", "mae_q1", "mae_median", "mae_q3", "mae_max"), mae)),
            "maxae_median": _spread([e[1] for e in errors])[2],
        })
    return table

