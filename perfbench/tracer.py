"""Outside-in span tracer for the fritpid benchmark.

`Tracer.install()` replaces fritpid's public functions and methods with
wrappers that record one span per call: name, start, end (perf_counter_ns)
and the index of the enclosing span.  Module-level functions are patched at
every module that holds a reference to them, because `fritpid.cli` and the
package namespace import `run_scenario`, `batch_tune` and `frit_cost` by
name.  Methods are patched on the class that defines them, so the three
estimator classes that inherit `eigenvalues` share one wrapper.
`Tracer.uninstall()` puts every original object back.

Spans stay in memory as flat arrays; `Tracer.summary()` turns them into
per-name durations and self times (duration minus the time covered by child
spans).  Calls are strictly nested in one thread, so the children of a span
never overlap and the self times of all spans add up to the root span.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

_MISSING = object()

# Per-layer timings reported by the traced run:
# metric name -> (span name, statistic, unit).  "self" is the span's
# duration minus its children; "self_per_step" divides that by the steps
# the run simulated.
TIMINGS = {
    "adaptive.update_us.noforget": ("adaptive.update.noforget", "dur", "us"),
    "adaptive.update_us.ef": ("adaptive.update.ef", "dur", "us"),
    "adaptive.update_us.df": ("adaptive.update.df", "dur", "us"),
    "adaptive.update_us.er": ("adaptive.update.er", "dur", "us"),
    "adaptive.eigen_us": ("adaptive.eigen", "dur", "us"),
    "adaptive.regressor_us": ("adaptive.regressor", "dur", "us"),
    "controller.step_us": ("controller.step", "dur", "us"),
    "plant.step_us.bouc_wen": ("plant.step.bouc_wen", "dur", "us"),
    "plant.step_us.lti": ("plant.step.lti", "dur", "us"),
    "harness.run_scenario_self_us": ("harness.run_scenario", "self_per_step", "us"),
    "harness.save_csv_s": ("harness.save_csv", "dur", "s"),
    "frit.dataset_save_s": ("frit.dataset_save", "dur", "s"),
    "frit.dataset_load_s": ("frit.dataset_load", "dur", "s"),
    "frit.regressor_samples_s": ("frit.regressor_samples", "dur", "s"),
    "frit.batch_tune_self_s": ("frit.batch_tune", "self", "s"),
    "frit.frit_cost_s": ("frit.frit_cost", "dur", "s"),
    "lti.filter_s": ("lti.filter", "dur", "s"),
    "cli.main_self_s": ("cli.main", "self", "s"),
}

# Layers whose self times are summed; "bench" is time inside the traced
# pass that no wrapped fritpid call covers (the benchmark's own glue).
LAYERS = ("bench", "cli", "harness", "adaptive", "controller", "plant", "lti", "frit")

ROOT_SPAN = "bench.pass"

_SCALE = {"us": 1e-3, "s": 1e-9}  # from nanoseconds

_PLANT_KINDS = {"BoucWenPlant": "bouc_wen", "LtiPlant": "lti"}


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for metric, (_, _, unit) in TIMINGS.items():
        units[f"{metric}.p50"] = unit
        units[f"{metric}.p99"] = unit
        units[f"{metric}.calls"] = "count"
    units["adaptive.deadzone_frac"] = "frac"
    units["trace.wall_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    for layer in LAYERS:
        units[f"self_s.{layer}"] = "s"
    return units


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans (patches stay in place)."""
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.steps: dict[int, int] = {}
        self.df_calls = 0
        self.df_skips = 0
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = perf_counter_ns()
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def _wrap(self, fn, name_of, after=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if after is not None:
                after(idx, args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        traced = self._wrap(original, lambda args: name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fritpid" or mod_name.startswith("fritpid.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def _patch_method(self, cls, attr: str, name_of, after=None) -> None:
        owner = next(c for c in cls.__mro__ if attr in c.__dict__)
        raw = owner.__dict__[attr]
        if getattr(raw, "__func__", raw).__dict__.get("_fritpid_traced"):
            return  # an inherited method already patched for a sibling class
        if isinstance(raw, classmethod):
            traced = classmethod(self._wrap(raw.__func__, name_of, after))
            traced.__func__._fritpid_traced = True
        else:
            traced = self._wrap(raw, name_of, after)
            traced._fritpid_traced = True
        self._set(owner, attr, traced)

    def install(self) -> None:
        import fritpid.adaptive as adaptive
        import fritpid.cli as cli
        import fritpid.controller as controller
        import fritpid.frit as frit
        import fritpid.harness as harness
        import fritpid.lti as lti
        import fritpid.plant as plant

        def fixed(name):
            return lambda args: name

        def record_steps(idx, args, trace):
            self.steps[idx] = len(trace)

        def count_deadzone(idx, args, ehat):
            est = args[0]
            if est.mode == "df":
                self.df_calls += 1
                self.df_skips += bool(est.deadzone_active)

        self._patch_function(harness, "run_scenario", "harness.run_scenario", record_steps)
        self._patch_function(harness, "compare_methods", "harness.compare_methods")
        self._patch_function(harness, "method_variants", "harness.method_variants")
        self._patch_function(frit, "batch_tune", "frit.batch_tune")
        self._patch_function(frit, "regressor_samples", "frit.regressor_samples")
        self._patch_function(frit, "frit_cost", "frit.frit_cost")
        self._patch_function(cli, "main", "cli.main")

        self._patch_method(harness.RunTrace, "save_csv", fixed("harness.save_csv"))
        self._patch_method(frit.ClosedLoopDataset, "save", fixed("frit.dataset_save"))
        self._patch_method(frit.ClosedLoopDataset, "load", fixed("frit.dataset_load"))
        self._patch_method(adaptive.RegressorGenerator, "step", fixed("adaptive.regressor"))
        self._patch_method(controller.PidController, "step", fixed("controller.step"))
        self._patch_method(lti.RationalFilter, "filter", fixed("lti.filter"))
        for cls_name in _PLANT_KINDS:
            self._patch_method(
                getattr(plant, cls_name), "step",
                lambda args: "plant.step." + _PLANT_KINDS[type(args[0]).__name__],
            )
        # every public estimator class: anything in `adaptive` with update()
        # and eigenvalues(); the mode is read from the instance per call
        estimators = [
            obj for key, obj in vars(adaptive).items()
            if not key.startswith("_") and isinstance(obj, type)
            and hasattr(obj, "update") and hasattr(obj, "eigenvalues")
        ]
        for cls in estimators:
            self._patch_method(
                cls, "update", lambda args: "adaptive.update." + args[0].mode, count_deadzone
            )
            self._patch_method(cls, "eigenvalues", fixed("adaptive.eigen"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, durations and self times of the recorded pass.

        Returns {"wall_ns", "layer_self_ns", "calls", "samples", "df_calls",
        "df_skips"} where samples[span] = {"dur": ns array, "self": ns array,
        "self_per_step": ns array}.
        """
        if self._stack:
            raise RuntimeError("summary taken with spans still open")
        name_id = np.frombuffer(self.name_id, dtype=np.uint16)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        roots = np.flatnonzero(~has_parent)
        if len(roots) != 1 or self._names[name_id[roots[0]]] != ROOT_SPAN:
            raise RuntimeError(f"expected one {ROOT_SPAN!r} root span, found {len(roots)}")

        layer_self = {layer: 0 for layer in LAYERS}
        calls, samples = {}, {}
        for nid, name in enumerate(self._names):
            idx = np.flatnonzero(name_id == nid)
            if len(idx) == 0:
                continue
            layer_self[name.split(".")[0]] += int(self_ns[idx].sum())
            calls[name] = len(idx)
            entry = {"dur": dur[idx], "self": self_ns[idx]}
            if name == "harness.run_scenario":
                # a call that raised recorded no step count
                steps = np.array([self.steps.get(int(i), 0) for i in idx], dtype=float)
                entry["self_per_step"] = self_ns[idx][steps > 0] / steps[steps > 0]
            samples[name] = entry
        return {
            "wall_ns": int(dur[roots[0]]),
            "layer_self_ns": layer_self,
            "calls": calls,
            "samples": samples,
            "df_calls": self.df_calls,
            "df_skips": self.df_skips,
        }


def per_layer_metrics(summaries: list[dict], untraced_walls: list[float]) -> dict:
    """Metric values from the summaries of one or more traced passes."""
    units = per_layer_metric_units()
    out = {}
    first = summaries[0]
    for metric, (span, stat, unit) in TIMINGS.items():
        parts = [s["samples"][span][stat] for s in summaries if span in s["samples"]]
        values = np.concatenate(parts) * _SCALE[unit] if parts else np.zeros(0)
        out[f"{metric}.p50"] = float(np.percentile(values, 50)) if len(values) else 0.0
        out[f"{metric}.p99"] = float(np.percentile(values, 99)) if len(values) else 0.0
        out[f"{metric}.calls"] = first["calls"].get(span, 0)
    df_calls = sum(s["df_calls"] for s in summaries)
    df_skips = sum(s["df_skips"] for s in summaries)
    out["adaptive.deadzone_frac"] = df_skips / df_calls if df_calls else 0.0
    traced_walls = [s["wall_ns"] * 1e-9 for s in summaries]
    out["trace.wall_s"] = float(np.median(traced_walls))
    out["trace.overhead_frac"] = float(np.median(traced_walls) / np.median(untraced_walls) - 1.0)
    for layer in LAYERS:
        out[f"self_s.{layer}"] = float(
            np.median([s["layer_self_ns"][layer] * 1e-9 for s in summaries])
        )
    return {name: {"value": out[name], "unit": units[name]} for name in units}
