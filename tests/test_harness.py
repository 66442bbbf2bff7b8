import copy
import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fritpid import harness
from fritpid.adaptive import RegressorGenerator
from fritpid.csvio import CHUNK_ROWS
from fritpid.harness import (
    TRACE_COLUMNS,
    ConfigError,
    EstimatorSpec,
    GmSpec,
    PlantSpec,
    ReferenceSpec,
    RunTrace,
    ScenarioConfig,
    compare_methods,
    method_variants,
    run_scenario,
)
from fritpid.lti import ReferenceModel

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)

TS = 0.01
ROOT = Path(__file__).resolve().parent.parent
BUNDLED = sorted((ROOT / "scenarios").glob("*.json")) + [
    ROOT / "perfbench" / "prior_experiment.json"
]


def identity_plant_config(mode="df", **estimator_overrides):
    # mu = 0.99: pure exponential forgetting inflates the covariance
    # geometrically once the loop settles (no excitation); smaller mu would
    # wind up past float64 before the horizon ends
    est = {
        "mode": mode,
        "mu": 0.99,
        "epsilon": 1e-3,
        "r0": 0.01,
        "r_inf": 0.01,
        "theta0": [0.5, 1.0, 0.0],
    }
    est.update(estimator_overrides)
    return ScenarioConfig.from_dict(
        {
            "name": "identity",
            "duration": 40.0,
            "ts": TS,
            "reference": {"kind": "constant", "offset": 1.0},
            "gm": {"dc_gain": 1.0},
            "estimator": est,
            "plant": {"kind": "lti", "num": [1.0], "den": [1.0], "noise_std": 0.0},
            "trials": 1,
            "evaluation_window": [30.0, 40.0],
        }
    )


class TestConfig:
    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"duration": 0.0})

    def test_window_inside_horizon(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"duration": 10.0, "evaluation_window": [5.0, 20.0]})

    def test_unknown_estimator_mode(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"estimator": {"mode": "magic"}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"reference": {"kind": "sine", "phase": 1.0}})

    @pytest.mark.parametrize("raw", [[], "scenario", 3])
    def test_scenario_must_be_an_object(self, raw):
        with pytest.raises(ConfigError, match="JSON object"):
            ScenarioConfig.from_dict(raw)

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json(p)

    def test_default_window_is_the_whole_run(self):
        cfg = ScenarioConfig(duration=10.0)
        assert cfg.evaluation_window == [0.0, 10.0]
        assert cfg == ScenarioConfig.from_dict({"duration": 10.0})

    @pytest.mark.parametrize("plant, num, den", [
        ({}, [0.0, 0.0095], [1.0, -0.99]),
        ({"num": [0.0, 0.02]}, [0.0, 0.02], [1.0, -0.99]),
        ({"den": [1.0, -0.9]}, [0.0, 0.0095], [1.0, -0.9]),
    ], ids=["default", "num-only", "den-only"])
    def test_lti_plant_defaults_fill_an_omitted_num_or_den(self, plant, num, den):
        # an omitted num or den takes its field's default list
        _, _, _, lti, _ = ScenarioConfig(plant=PlantSpec(**plant)).build()
        assert (lti._filter.num, lti._filter.den) == (num, den)

    def test_seeds_default_to_range(self):
        cfg = identity_plant_config()
        cfg.trials = 4
        assert list(cfg.trial_seeds()) == [0, 1, 2, 3]

    def test_reference_kinds(self):
        for kind, kw in [
            ("constant", {"offset": 2.0}),
            ("sine", {"amplitude": 1.0, "offset": 0.0, "frequency": 0.3}),
            ("square", {"amplitude": 1.0, "offset": 0.0, "period": 10.0}),
            ("staircase", {"levels": [1.0, 2.0], "interval": 5.0}),
        ]:
            sig = ScenarioConfig.from_dict(
                {"reference": dict(kind=kind, **kw)}
            ).reference.signal(80.0)
            assert np.isfinite(sig(0.0)) and np.isfinite(sig(7.3))

    def test_staircase_levels_and_clamp(self):
        sig = ScenarioConfig.from_dict(
            {"reference": {"kind": "staircase", "levels": [1.0, 2.0, 3.0], "interval": 5.0}}
        ).reference.signal(80.0)
        assert [sig(t) for t in (0.0, 4.9, 5.0, 12.0, 99.0)] == [1, 1, 2, 3, 3]

    def test_staircase_with_a_subnormal_interval(self):
        # t // interval overflows to inf after t = 0; the last level holds from there
        sig = ReferenceSpec(kind="staircase", interval=5e-324).signal(80.0)
        assert (sig(0.0), sig(0.01)) == (20.0, 65.0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        kind=st.sampled_from(["constant", "sine", "square", "staircase"]),
        amplitude=FINITE, offset=FINITE, frequency=FINITE, period=FINITE,
        levels=st.lists(FINITE, max_size=3), interval=FINITE,
        duration=POSITIVE, ts_fraction=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_every_reference_that_loads_is_finite(self, kind, amplitude, offset, frequency,
                                                  period, levels, interval, duration,
                                                  ts_fraction):
        spec = ReferenceSpec(kind, amplitude, offset, frequency, period, levels, interval)
        try:
            sig = spec.signal(duration)
        except ConfigError:
            return
        for t in (0.0, ts_fraction * duration, duration):
            assert math.isfinite(sig(t)), (t, sig(t))


def leaf_paths(value, path=()):
    """Path of every leaf (a value that is neither a list nor an object)."""
    if not isinstance(value, (dict, list)):
        yield path
        return
    for key, child in value.items() if isinstance(value, dict) else enumerate(value):
        yield from leaf_paths(child, path + (key,))


def swap_leaf(raw, path, swap):
    *head, key = path
    for k in head:
        raw = raw[k]
    raw[key] = swap(raw[key])


def integral_floats_as_ints(value):
    """`value` with every float that is a whole number written as an int."""
    if isinstance(value, dict):
        return {k: integral_floats_as_ints(v) for k, v in value.items()}
    if isinstance(value, list):
        return [integral_floats_as_ints(v) for v in value]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class TestSchema:
    """The field annotations are the scenario schema; see `harness._load`."""

    SWAPS = {"true": lambda v: True, "json text": json.dumps, "list": lambda v: [v]}

    def test_every_type_swapped_leaf_is_rejected(self):
        loaded, total = [], 0
        for path in BUNDLED:
            base = json.loads(path.read_text())
            for leaf in leaf_paths(base):
                for how, swap in self.SWAPS.items():
                    raw = copy.deepcopy(base)
                    swap_leaf(raw, leaf, swap)
                    total += 1
                    try:
                        ScenarioConfig.from_dict(raw)
                    except ConfigError:
                        continue
                    loaded.append((path.stem, leaf, how))
        assert total == 273  # 3 swaps of each of the 91 leaves in BUNDLED
        # a quoted name is still a non-empty string
        assert loaded == [(p.stem, ("name",), "json text") for p in BUNDLED]

    @pytest.mark.parametrize("raw, message", [
        ({"trials": 10.0}, "trials must be an integer, got 10.0"),
        ({"trials": "10"}, "trials must be an integer, got '10'"),
        ({"estimator": {"mu": True}}, "estimator.mu must be a number, got True"),
        ({"estimator": {"theta0": [0.1, "0.1", 0.0]}}, r"estimator.theta0\[1\] must be a number"),
        ({"reference": {"kind": "staircase", "levels": "12"}}, "reference.levels must be a list"),
        ({"plant": {"num": "12"}}, "plant.num must be a list"),
        ({"plant": {"kind": "bouc_wen", "params": {"tau": "0.4"}}},
         "plant.params.tau must be a number"),
        ({"plant": {"schedule": [{"time": True}]}}, r"plant.schedule\[0\].time must be a number"),
        ({"seeds": [0, False]}, r"seeds\[1\] must be an integer"),
        ({"gm": []}, "gm must be a JSON object"),
        ({"gm": {"pole": 0.99}}, r"unknown gm fields \['pole'\]"),
    ], ids=["trials-float", "trials-string", "mu-bool", "theta0-string-entry", "levels-string",
            "lti-num-string", "params-string", "schedule-time-bool", "seeds-bool-entry",
            "gm-list", "gm-unknown-key"])
    def test_a_mistyped_field_is_named(self, raw, message):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize("theta0", [[math.nan, 0.1, 0.1], [0.1, 0.1]])
    def test_fixed_mode_gains_are_checked_at_load(self, theta0):
        with pytest.raises(ConfigError, match="bad estimator"):
            ScenarioConfig.from_dict({"estimator": {"mode": "fixed", "theta0": theta0}})

    def test_integers_in_float_fields_give_the_golden_trace(self):
        spec = importlib.util.spec_from_file_location(
            "golden_traces", ROOT / "scripts" / "golden_traces.py")
        golden = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(golden)
        runs = golden.load()["runs"]
        for path in BUNDLED:
            raw = json.loads(path.read_text())
            as_ints = integral_floats_as_ints(raw)
            assert json.dumps(as_ints) != json.dumps(raw)
            cfg = ScenarioConfig.from_dict(as_ints)
            assert repr(cfg) == repr(ScenarioConfig.from_dict(raw))  # 80 loads as 80.0
            digest = runs[f"{path.stem}/{cfg.estimator.mode}/seed0"]
            assert golden.run_digest(cfg, 0) == digest, path.stem

    def test_readme_example_loads(self):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("## Scenario files", 1)[1]
        example = section.split("```jsonc", 1)[1].split("```", 1)[0]
        cfg = ScenarioConfig.from_dict(json.loads(re.sub(r"//.*", "", example)))
        assert cfg.name == "load_change" and cfg.plant.schedule


class TestRunScenario:
    def test_equilibrium_tracking(self):
        trace = run_scenario(identity_plant_config(), seed=0)
        assert trace.mae < 1e-6
        assert len(trace) == 4000

    @pytest.mark.parametrize("mode", ["fixed", "df"])
    def test_a_shorter_run_is_a_prefix_of_a_longer_one(self, mode):
        cfg = ScenarioConfig.from_json("scenarios/load_change.json")
        cfg.estimator.mode = mode
        horizon = 131 * cfg.ts + 0.05
        long = run_scenario(
            replace(cfg, duration=horizon, evaluation_window=[0.0, horizon]), seed=3
        )
        for n in (1, 63, 64, 65, 131):
            horizon = n * cfg.ts
            short = run_scenario(
                replace(cfg, duration=horizon, evaluation_window=[0.0, horizon]), seed=3
            )
            assert len(short) == n
            for c in TRACE_COLUMNS:
                assert np.array_equal(short[c], long[c][:n], equal_nan=True), (n, c)

    def test_each_part_is_built_once_per_run(self, monkeypatch):
        cfg = identity_plant_config()
        calls = []
        for spec, method in ((ReferenceSpec, "signal"), (GmSpec, "build"),
                             (EstimatorSpec, "build"), (PlantSpec, "build")):
            def counted(self, *args, _original=getattr(spec, method), _name=spec.__name__):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(spec, method, counted)
        run_scenario(cfg, seed=0)
        assert sorted(calls) == ["EstimatorSpec", "GmSpec", "PlantSpec", "ReferenceSpec"]

    def test_seed_defaults_to_the_first_trial_seed(self):
        cfg = replace(identity_plant_config(), seeds=[7, 8])
        assert run_scenario(cfg).seed == 7

    @pytest.mark.parametrize("seed", [-1, True, 1.0])
    def test_bad_seed_is_a_config_error(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            run_scenario(identity_plant_config(), seed=seed)

    def test_all_methods_on_identity_plant(self):
        rows = compare_methods(method_variants(identity_plant_config()))
        assert [r["mode"] for r in rows] == ["fixed", "noforget", "ef", "df", "er"]
        for row in rows:
            assert row["mae_median"] < 1e-6

    def test_fixed_mode_gains_constant(self):
        trace = run_scenario(identity_plant_config(mode="fixed"), seed=0)
        assert np.all(trace["kp"] == 0.5)
        assert np.all(trace["ki"] == 1.0)
        assert np.all(trace["kd"] == 0.0)
        assert np.all(np.isnan(trace["pmin"]))

    def test_matched_lti_scenario_tracks_reference_model(self):
        cfg = ScenarioConfig.from_json("scenarios/matched_lti.json")
        trace = run_scenario(cfg, seed=0)
        gm = ReferenceModel.first_order(cfg.ts, dc_gain=1.0)
        ygm = np.asarray(gm.filter.filter(trace["r"]))
        mask = trace.window_mask()
        assert np.max(np.abs(trace["y"][mask] - ygm[mask])) < 1e-3

    def test_default_reference_model_steers_toward_its_dc_gain(self):
        # with a dc gain 0.95 model the tuner's objective is y -> 0.95 r,
        # not y -> r: the adapted loop parks 5% below the reference.  This
        # is why the bundled scenarios use dc gain 1.0.
        cfg = ScenarioConfig.from_dict(
            {
                "name": "default_gm",
                "duration": 30.0,
                "ts": TS,
                "reference": {"kind": "constant", "offset": 1.0},
                "gm": {"dc_gain": 0.95},  # 0.0095 z^-1 / (1 - 0.99 z^-1)
                "estimator": {"mode": "df", "mu": 0.9, "theta0": [0.1, 0.1, 0.01]},
                "plant": {"kind": "lti", "num": [0.0, 0.0095], "den": [1.0, -0.99]},
                "evaluation_window": [20.0, 30.0],
            }
        )
        trace = run_scenario(cfg, seed=0)
        tail = trace["y"][trace.window_mask()]
        assert np.max(np.abs(tail - 0.95)) < 5e-3

    def test_metrics_match_brute_force(self):
        cfg = identity_plant_config()
        trace = run_scenario(cfg, seed=0)
        lo, hi = cfg.evaluation_window
        err = [
            abs(r - y)
            for r, y, t in zip(trace["r"], trace["y"], trace["t"])
            if lo <= t < hi
        ]
        assert trace.mae == pytest.approx(sum(err) / len(err), rel=1e-12)
        assert trace.max_ae == pytest.approx(max(err), rel=1e-12)

    def test_auxiliary_error_consistency_with_frozen_gains(self):
        cfg = identity_plant_config(mode="fixed")
        trace = run_scenario(cfg, seed=0)
        theta = np.array(cfg.estimator.theta0)
        gen = RegressorGenerator(cfg.gm.build(cfg.ts).filter, cfg.ts)
        expected = []
        for y, u in zip(trace["y"], trace["u"]):
            phi, d = gen.step(float(y), float(u))
            expected.append(float(phi @ theta - d))
        assert trace["ehat"] == pytest.approx(expected, abs=1e-12)

    def test_deadzone_flag_recorded(self):
        # zero reference on a zero-state loop: regressor stays below epsilon
        cfg = identity_plant_config()
        cfg.reference.offset = 0.0
        trace = run_scenario(cfg, seed=0)
        assert np.all(trace["deadzone"] == 1.0)

    def test_breakdown_reported_with_step_index(self):
        # pure exponential forgetting on a settled loop eventually winds the
        # covariance past float64; the harness must say where
        from fritpid.adaptive import NumericalBreakdownError

        cfg = identity_plant_config(mode="ef", mu=0.9)
        cfg.duration = 60.0
        cfg.evaluation_window = [0.0, 60.0]
        with pytest.raises(NumericalBreakdownError, match=r"step \d+ \(t="):
            run_scenario(cfg, seed=0)


def reference_trace_csv(trace, path):
    """The row-at-a-time `csv.writer` loop that defined the trace format."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        cols = [trace[c] for c in TRACE_COLUMNS]
        for row in zip(*cols):
            writer.writerow(
                [str(int(row[0]))]
                + [repr(float(v)) for v in row[1:-1]]
                + [str(int(row[-1]))]
            )


def synthetic_trace(n, **columns):
    """An n-row trace of seeded values, with the given columns in place of those."""
    rng = np.random.default_rng(n)
    cols = {c: rng.standard_normal(n) for c in TRACE_COLUMNS}
    cols["k"] = np.arange(n, dtype=float)
    cols["t"] = cols["k"] * 0.01
    cols["deadzone"] = (cols["deadzone"] > 0).astype(float)
    cols.update(columns)
    return RunTrace(cols, (0.0, math.inf), "synthetic", 0)


def mixed_nans(n):
    """NaN everywhere, with the sign bit set on every other row."""
    x = np.full(n, np.nan)
    x[::2] = -x[::2]
    return x


C = CHUNK_ROWS
WRITER_EDGE_CASES = {
    "one-row": lambda: synthetic_trace(1),
    "one-chunk": lambda: synthetic_trace(C),
    "chunk-plus-one": lambda: synthetic_trace(C + 1),
    # r: constant over chunk 1, a step inside chunk 2, constant over chunk 3
    "constant-then-varying": lambda: synthetic_trace(
        3 * C, r=np.repeat([1.0, 1.0, 2.0, 3.0, 3.0, 3.0], C // 2),
        kp=np.r_[np.full(C, 0.5), np.arange(2.0 * C)],
    ),
    # u mixes 0.0 and -0.0 in each chunk; e is 0.0 over chunk 1, -0.0 over chunk 2
    "signed-zeros": lambda: synthetic_trace(
        C + 2, u=np.where(np.arange(C + 2) % 3 == 1, -0.0, 0.0),
        e=np.r_[np.zeros(C), -0.0, -0.0],
    ),
    "all-nan": lambda: synthetic_trace(C + 1, pmin=np.full(C + 1, np.nan), pmax=mixed_nans(C + 1)),
    "every-column-constant": lambda: synthetic_trace(
        C + 1, **{c: np.full(C + 1, float(i)) for i, c in enumerate(TRACE_COLUMNS)},
    ),
}


class TestTraceIo:
    def test_csv_round_trip(self, tmp_path):
        trace = run_scenario(identity_plant_config(), seed=0)
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        loaded = RunTrace.load_csv(path, window=trace.window)
        for col in TRACE_COLUMNS:
            assert loaded[col].tobytes() == trace[col].tobytes()

    def test_load_with_an_empty_window_raises(self, tmp_path):
        # a window past the end of the trace would give mae = nan and make max_ae raise
        path = tmp_path / "trace.csv"
        run_scenario(identity_plant_config(), seed=0).save_csv(path)
        match = r"trace\.csv: no trace row falls in the window \[1000\.0, 2000\.0\]"
        with pytest.raises(ValueError, match=match):
            RunTrace.load_csv(path, window=(1000.0, 2000.0))

    def test_load_a_field_too_large_for_the_csv_module_raises(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(",".join(TRACE_COLUMNS) + f'\r\n"{"0" * 200_000}"\r\n', newline="")
        with pytest.raises(ValueError, match=r"trace\.csv: line 2: field larger than field limit"):
            RunTrace.load_csv(path)

    def test_load_an_undecodable_file_names_it(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(",".join(TRACE_COLUMNS).encode() + b"\r\n0\xff\r\n")
        with pytest.raises(ValueError, match=r"trace\.csv: '[\w-]+' codec can't decode byte 0xff"):
            RunTrace.load_csv(path)

    @pytest.mark.parametrize("mode", ["fixed", "df"])
    def test_bytes_match_reference_writer(self, tmp_path, mode):
        # fixed mode writes nan pmin/pmax; df sets deadzone on some steps
        trace = run_scenario(identity_plant_config(mode, epsilon=0.05), seed=0)
        assert np.isnan(trace["pmax"]).all() == (mode == "fixed")
        assert trace["deadzone"].any() == (mode == "df")
        trace.save_csv(tmp_path / "new.csv")
        reference_trace_csv(trace, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("case", WRITER_EDGE_CASES)
    def test_edge_case_bytes_match_reference_writer(self, tmp_path, case):
        trace = WRITER_EDGE_CASES[case]()
        trace.save_csv(tmp_path / "new.csv")
        reference_trace_csv(trace, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        loaded = RunTrace.load_csv(tmp_path / "new.csv")
        for col in TRACE_COLUMNS:
            if not np.isnan(trace[col]).any():  # every NaN is written as "nan"
                assert loaded[col].tobytes() == trace[col].tobytes()

    def test_header_order(self, tmp_path):
        trace = run_scenario(identity_plant_config(), seed=0)
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "k,t,r,y,u,e,ehat,kp,ki,kd,pmin,pmax,deadzone"

    def test_reproducible_bytes(self, tmp_path):
        cfg = ScenarioConfig.from_json("scenarios/load_change.json")
        cfg.duration = 5.0
        cfg.evaluation_window = [0.0, 5.0]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_scenario(cfg, seed=3).save_csv(a)
        run_scenario(cfg, seed=3).save_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_summary_is_json_serializable(self):
        trace = run_scenario(identity_plant_config(), seed=0)
        out = json.dumps(trace.summary())
        assert "mae" in json.loads(out)


class TestComparisonHelpers:
    def test_method_variants_names(self):
        cfgs = method_variants(identity_plant_config(), ["fixed", "df"])
        assert [c.estimator.mode for c in cfgs] == ["fixed", "df"]
        assert cfgs[0].name.endswith("/fixed")

    # MAE and maxAE are finite and non-negative; the pool draws ties and zeros
    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(st.lists(st.floats(0.0, allow_infinity=False) | st.sampled_from([0.0, 0.5, 1.0]),
                    min_size=1, max_size=12))
    def test_spread_is_numpys_percentile_and_median_to_the_bit(self, values):
        a = np.array(values)
        with np.errstate(over="ignore"):  # the mean of two values near the float max is inf
            numpy = [a.min(), np.percentile(a, 25), np.median(a), np.percentile(a, 75), a.max()]
        assert [x.hex() for x in harness._spread(values)] == [float(x).hex() for x in numpy]

    def test_one_trace_is_held_at_a_time(self, monkeypatch):
        real, traces, alive_at_start = harness.run_scenario, [], []

        def run_scenario(cfg, seed=None):
            alive_at_start.append([k for k, ref in enumerate(traces) if ref() is not None])
            trace = real(cfg, seed=seed)
            traces.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(harness, "run_scenario", run_scenario)
        cfg = replace(identity_plant_config(), duration=1.0, evaluation_window=[0.0, 1.0],
                      trials=3)
        rows = compare_methods(method_variants(cfg, ["fixed", "df"]))
        # trial k + 1 starts with no trace alive, within a row and across rows
        assert alive_at_start == [[]] * 6
        assert [ref() for ref in traces] == [None] * 6
        monkeypatch.undo()
        assert rows == compare_methods(method_variants(cfg, ["fixed", "df"]))

    def test_a_comparison_never_imports_numpy_ma(self):
        # a subprocess, since another test may have imported numpy.ma in this one
        code = """if True:
            import sys
            from dataclasses import replace
            from fritpid import harness
            base = harness.ScenarioConfig.from_json(sys.argv[1])
            short = replace(base, duration=1.0, evaluation_window=[0.0, 1.0])
            rows = harness.compare_methods(harness.method_variants(short))
            print(len(rows), "numpy.ma" in sys.modules)
        """
        done = subprocess.run([sys.executable, "-c", code, str(ROOT / "scenarios/load_change.json")],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, check=True)
        assert done.stdout == "5 False\n"
