import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import matched_loop_data
from fritpid import harness
from fritpid.cli import main
from fritpid.controller import PidBasis
from fritpid.frit import ClosedLoopDataset, batch_tune
from fritpid.harness import ConfigError, ScenarioConfig
from fritpid.lti import ReferenceModel

THETA_STAR = np.array([0.107, 0.1515, 0.0115])
MATCHED_LTI = Path(__file__).resolve().parent.parent / "scenarios" / "matched_lti.json"


def strict_json(path: Path):
    """The JSON value in a file, refusing NaN, Infinity and -Infinity, which are not JSON."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def tree(root: Path) -> dict:
    """Every path under root, with the bytes of each file (None for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def field_names(edit) -> set:
    """The keys of a JSON edit at any depth, less the names of scenario sections."""
    if isinstance(edit, list):
        return set().union(*map(field_names, edit))
    if not isinstance(edit, dict):
        return set()
    return (edit.keys() - {"reference", "gm", "estimator", "plant"}).union(
        *map(field_names, edit.values()))


def no_step(*args):
    raise AssertionError("a step ran")


@pytest.fixture
def short_scenario(tmp_path):
    cfg = {
        "name": "short",
        "duration": 6.0,
        "ts": 0.01,
        "reference": {"kind": "constant", "offset": 1.0},
        "gm": {"dc_gain": 1.0},
        "estimator": {"mode": "df", "mu": 0.9, "theta0": [0.5, 5.0, 0.0]},
        "plant": {"kind": "lti", "num": [1.0], "den": [1.0]},
        "evaluation_window": [3.0, 6.0],
    }
    path = tmp_path / "short.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRun:
    def test_bundled_matched_scenario(self, tmp_path, capsys):
        code = main(["run", "scenarios/matched_lti.json", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "matched_lti_summary.json").read_text())
        assert summary["mae"] < 1e-3
        assert (tmp_path / "matched_lti_trace.csv").exists()
        assert "MAE" in capsys.readouterr().out

    def test_summary_reports_simulation_cost(self, tmp_path, short_scenario):
        assert main(["run", str(short_scenario), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "short_summary.json").read_text())
        for key in ("wall_s", "step_us"):
            assert isinstance(summary[key], float)
            assert 0.0 < summary[key] < math.inf
        assert summary["step_us"] == pytest.approx(summary["wall_s"] / summary["steps"] * 1e6)

    @pytest.mark.parametrize(
        "section, edit",
        [
            pytest.param(None, {"duration": -1.0}, id="duration"),
            pytest.param(None, {"duration": math.inf}, id="duration-inf"),
            pytest.param(None, {"reference": {"kind": "staircase", "levels": []}},
                         id="staircase-no-levels"),
            pytest.param("reference", {"kind": "square", "period": 0.0}, id="square-zero-period"),
            pytest.param("plant", {"schedule": [{"gain_scale": 0.5}]}, id="schedule-no-time"),
            pytest.param("plant", {"noise_std": math.nan}, id="noise-std-nan"),
            pytest.param(
                None, {"duration": 0.004, "evaluation_window": [0.0, 0.004]}, id="zero-steps"
            ),
            # 8e10 steps: rejected before any trace buffer is allocated
            pytest.param(None, {"ts": 1e-9}, id="too-many-steps"),
            pytest.param("plant", {"saturation": [1.0]}, id="saturation-one-bound"),
            pytest.param("plant", {"saturation": [1.0, -1.0]}, id="saturation-reversed"),
            pytest.param("plant", {"saturation": "12"}, id="saturation-string"),
            pytest.param("plant", {"saturation": [False, True]}, id="saturation-booleans"),
            # a whole section of one kind replaces matched_lti's lti plant, square
            # reference or first-order gm, so no field of another kind is left in it
            pytest.param(
                None, {"plant": {"kind": "bouc_wen", "params": {"foo": 1.0}}},
                id="bouc-wen-unknown-key",
            ),
            pytest.param(
                None, {"plant": {"kind": "bouc_wen", "params": {"beta": 0.3, "gamma": -0.3}}},
                id="bouc-wen-beta-not-above-gamma",
            ),
            pytest.param(
                None, {"plant": {"kind": "bouc_wen", "params": {"n": 0.5}}}, id="bouc-wen-n"
            ),
            pytest.param(
                None, {"plant": {"kind": "bouc_wen", "params": {"tau": 0.0}}}, id="bouc-wen-tau"
            ),
            pytest.param(
                None, {"plant": {"kind": "bouc_wen", "params": {"tau": math.nan}}},
                id="bouc-wen-tau-nan",
            ),
            pytest.param(
                None, {"plant": {"kind": "bouc_wen", "params": {"sigma": -1.0}}},
                id="bouc-wen-sigma",
            ),
            pytest.param(
                None, {"plant": {"kind": "bouc_wen", "params": {"gain": math.nan}}},
                id="bouc-wen-gain-nan",
            ),
            # non-finite reference-model and filter parameters
            pytest.param("gm", {"dc_gain": math.nan}, id="gm-dc-gain-nan"),
            pytest.param(
                None, {"gm": {"dc_gain": math.nan},
                       "estimator": {"mode": "fixed", "theta0": [0.1, 0.1, 0.01]}},
                id="gm-dc-gain-nan-fixed",
            ),
            pytest.param("gm", {"tau": math.nan}, id="gm-tau-nan"),
            pytest.param("gm", {"tau": math.inf}, id="gm-tau-inf"),
            pytest.param(
                None, {"gm": {"num": [0.0, math.nan], "den": [1.0, -0.99]}}, id="gm-num-nan"
            ),
            pytest.param(None, {"gm": {"num": [0.0, 0.01]}}, id="gm-num-without-den"),
            pytest.param("plant", {"num": [0.0, math.nan]}, id="lti-num-nan"),
            pytest.param("plant", {"den": [1.0, -math.inf]}, id="lti-den-inf"),
            # fields the plant kind does not read
            pytest.param("plant", {"params": {"gain": 5.0}}, id="lti-params"),
            pytest.param(
                "plant", {"kind": "bouc_wen", "num": [0.0, 0.01], "den": [1.0, -0.99]},
                id="bouc-wen-num-den",
            ),
            # misspelled keys and schedules that would fail only when they fire
            pytest.param(None, {"duraton": 5.0}, id="unknown-top-level-key"),
            pytest.param(
                "plant", {"schedule": [{"time": 50.0, "gain_sclae": 0.7}]},
                id="lti-schedule-unknown-key",
            ),
            pytest.param(
                "plant", {"schedule": [{"time": 40.0, "num": [0.0, 0.01, 0.0],
                                        "den": [1.0, -0.99, 0.1]}]},
                id="lti-schedule-order-change",
            ),
            pytest.param(
                "plant", {"schedule": [{"time": 40.0, "gain_scale": math.nan}]},
                id="lti-schedule-gain-scale-nan",
            ),
            pytest.param(
                "plant", {"schedule": [{"time": math.nan, "gain_scale": 0.5}]},
                id="schedule-time-nan",
            ),
            pytest.param(
                None,
                {"plant": {"kind": "bouc_wen", "schedule": [{"time": 50.0, "tau_scale": -1}]}},
                id="bouc-wen-schedule-negative-tau-scale",
            ),
            pytest.param(
                None,
                {"plant": {"kind": "bouc_wen", "schedule": [{"time": 50.0, "gain_sclae": 0.7}]}},
                id="bouc-wen-schedule-unknown-key",
            ),
            pytest.param(
                None, {"plant": {"kind": "bouc_wen", "schedule": [{"time": 50.0, "num": [1.0]}]}},
                id="bouc-wen-schedule-lti-key",
            ),
            pytest.param(
                None, {"plant": {"kind": "bouc_wen", "schedule": [
                    {"time": 10.0, "tau_scale": 0.5}, {"time": 20.0, "beta": 0.1}]}},
                id="bouc-wen-schedule-second-switch-unbounded",
            ),
            # values of the wrong type that used to fail only at run time
            pytest.param(None, {"seeds": [None]}, id="seeds-null-entry"),
            pytest.param(None, {"seeds": True}, id="seeds-boolean"),
            pytest.param(None, {"trials": math.inf}, id="trials-inf"),
            pytest.param(
                "reference", {"kind": "staircase", "levels": ["a"]}, id="staircase-string-level"
            ),
            pytest.param("reference", {"kind": "sine", "amplitude": "a"}, id="sine-string-amplitude"),
            pytest.param(None, {"reference": {"kind": "sine", "amplitude": math.nan}},
                         id="sine-amplitude-nan"),
            pytest.param("reference", {"kind": "constant", "offset": "x"}, id="constant-string-offset"),
            pytest.param("estimator", {"mu": None}, id="estimator-mu-null"),
            pytest.param("estimator", {"r0": None}, id="estimator-r0-null"),
            # checks that used to run only when a run started
            pytest.param("reference", {"kind": "ramp"}, id="reference-unknown-kind"),
            pytest.param(None, {"trials": 3, "seeds": [0]}, id="fewer-seeds-than-trials"),
            pytest.param(None, {"seeds": [-1]}, id="seeds-negative-entry"),
            pytest.param(None, {"name": None}, id="name-null"),
            pytest.param(None, {"name": ""}, id="name-empty"),
            # loops the method cannot tune: no input path, d = 0 or phi = 0
            pytest.param("plant", {"num": []}, id="lti-num-empty"),
            pytest.param("plant", {"num": [0, 0]}, id="lti-num-zeros"),
            pytest.param("plant", {"schedule": [{"time": 10.0, "num": []}]},
                         id="lti-schedule-num-empty"),
            pytest.param("plant", {"schedule": [{"time": 10.0, "gain_scale": 0}]},
                         id="lti-schedule-gain-scale-zero"),
            pytest.param(None, {"plant": {"kind": "bouc_wen", "params": {"gain": 0}}},
                         id="bouc-wen-gain-zero"),
            pytest.param(None, {"plant": {"kind": "bouc_wen", "params": {"stiffness": 0}}},
                         id="bouc-wen-stiffness-zero"),
            pytest.param(None, {"plant": {"kind": "bouc_wen",
                                          "schedule": [{"time": 10.0, "gain_scale": 0}]}},
                         id="bouc-wen-schedule-gain-scale-zero"),
            pytest.param("gm", {"dc_gain": 0}, id="gm-dc-gain-zero"),
            pytest.param(None, {"gm": {"num": [0, 0], "den": [1, -0.5]}}, id="gm-num-zeros"),
            pytest.param(None, {"gm": {"num": [1], "den": [1]}}, id="gm-is-1"),
        ],
    )
    def test_invalid_scenario_exits_2(self, tmp_path, capsys, monkeypatch, section, edit):
        """`run` refuses the edit before step 0: exit 2, a message that names a field of
        the edit, and nothing written."""
        raw = json.loads(Path("scenarios/matched_lti.json").read_text())
        (raw if section is None else raw[section]).update(edit)
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        monkeypatch.setattr(PidBasis, "step", no_step)
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert any(re.search(rf"\b{name}\b", err) for name in field_names(edit)), err
        assert sorted(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("section, body, stderr", [
        pytest.param("reference",
                     {"kind": "constant", "offset": 1.0, "period": 3.0, "levels": [5.0]},
                     "constant reference does not read ['levels', 'period']", id="constant-period"),
        pytest.param("reference", {"kind": "staircase", "levels": [1.0], "offset": 2.0},
                     "staircase reference does not read ['offset']", id="staircase-offset"),
        pytest.param("gm", {"num": [0.0, 0.1], "den": [1.0, -0.9], "tau": 7.0, "dc_gain": 3.0},
                     "explicit gm does not read ['dc_gain', 'tau']", id="explicit-gm-tau"),
        pytest.param("plant", {"kind": "lti", "num": [0.0, 0.01], "den": [1.0, -0.99],
                               "params": {"gain": 5.0}},
                     "lti plant does not read ['params']", id="lti-params"),
        pytest.param("plant", {"kind": "bouc_wen", "num": [0.0, 0.01], "den": [1.0, -0.99]},
                     "bouc_wen plant does not read ['den', 'num']", id="bouc-wen-num-den"),
        pytest.param("plant", {"kind": "bouc_wen", "num": [0.0, 0.01]},
                     "bouc_wen plant does not read ['num']", id="bouc-wen-num"),
        # null is a type error, not an omitted num
        pytest.param("plant", {"kind": "lti", "num": None, "den": [1.0, -0.99]},
                     "plant.num must be a list, got None", id="lti-num-null"),
    ])
    def test_other_kind_plant_fields_are_named_and_nothing_is_written(
            self, tmp_path, capsys, monkeypatch, section, body, stderr):
        self.assert_refused_before_step_0(tmp_path, capsys, monkeypatch, section, body, stderr)

    @pytest.mark.parametrize("section, body, stderr", [
        pytest.param("reference", {"kind": "sine", "amplitude": math.nan},
                     "sine reference amplitude must be finite, got nan", id="sine-amplitude-nan"),
        pytest.param("plant", {"kind": "bouc_wen", "params": {"foo": 1}},
                     "unknown plant.params fields ['foo']", id="bouc-wen-params-unknown-key"),
        pytest.param("plant", {"kind": "bouc_wen", "params": {"beta": 0.3, "gamma": -0.3}},
                     "plant.params: beta must exceed |gamma| for a bounded loop, "
                     "got beta=0.3, gamma=-0.3", id="bouc-wen-params-beta-not-above-gamma"),
        pytest.param("plant", {"kind": "lti", "schedule": [{"time": 1, "gain_scale": [1, 2]}]},
                     "bad lti plant: schedule entry {'time': 1.0, 'gain_scale': [1.0, 2.0]}: "
                     "gain_scale must be a number, got [1.0, 2.0]",
                     id="lti-schedule-gain-scale-list"),
        pytest.param("plant", {"kind": "lti", "schedule": [{"time": 1, "num": 5}]},
                     "bad lti plant: schedule entry {'time': 1.0, 'num': 5.0}: "
                     "num must be a list of numbers, got 5.0", id="lti-schedule-num-number"),
        pytest.param("plant", {"kind": "bouc_wen", "schedule": [{"time": 1, "gain": [1]}]},
                     "bad bouc_wen plant: schedule entry {'time': 1.0, 'gain': [1.0]}: "
                     "gain must be a number, got [1.0]", id="bouc-wen-schedule-gain-list"),
        pytest.param("plant", {"kind": "bouc_wen", "schedule": [{"time": 1, "tau_scale": [2]}]},
                     "bad bouc_wen plant: schedule entry {'time': 1.0, 'tau_scale': [2.0]}: "
                     "tau_scale must be a number, got [2.0]",
                     id="bouc-wen-schedule-tau-scale-list"),
        pytest.param("plant", {"kind": "bogus"}, "unknown plant kind 'bogus'",
                     id="plant-unknown-kind"),
    ])
    def test_bad_value_is_named_once_and_nothing_is_written(
            self, tmp_path, capsys, monkeypatch, section, body, stderr):
        self.assert_refused_before_step_0(tmp_path, capsys, monkeypatch, section, body, stderr)

    @staticmethod
    def assert_refused_before_step_0(tmp_path, capsys, monkeypatch, section, body, stderr):
        """`run` on matched_lti with `section` replaced by `body` exits 2 with exactly
        `stderr`, runs no step and writes nothing."""
        monkeypatch.setattr(PidBasis, "step", no_step)
        raw = json.loads(Path(MATCHED_LTI).read_text())
        raw[section] = body
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {stderr}\n"
        assert sorted(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("path", [
        ("duration",), ("estimator", "mu"), ("reference", "offset"), ("plant", "params", "gain"),
    ], ids=["duration", "mu", "offset", "bouc-wen-gain"])
    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys, path):
        raw = json.loads(Path("scenarios/load_change.json").read_text())  # a Bouc-Wen plant
        *head, key = path
        node = raw
        for k in head:
            node = node.setdefault(k, {})
        node[key] = 10**400
        with pytest.raises(ConfigError, match=f"{key} is an integer too large for a float"):
            ScenarioConfig.from_dict(raw)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
        assert "too large for a float" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["../escaped", "sub/run", ".", ".."])
    def test_name_that_is_not_a_file_name_exits_2(self, tmp_path, capsys, name):
        raw = json.loads(Path("scenarios/matched_lti.json").read_text())
        raw["name"] = name
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "out" / "run"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert "plain file name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.json"]

    @pytest.mark.parametrize("scenario", ["matched_lti", "load_change"])
    def test_negative_seed_exits_2_before_step_0(self, tmp_path, capsys, monkeypatch, scenario):
        monkeypatch.setattr(PidBasis, "step", no_step)
        path = f"scenarios/{scenario}.json"
        assert main(["run", path, "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("reference, field", [
        ({"kind": "sine", "frequency": 1e308}, "frequency"),
        # 2*pi*frequency is finite, but w*t overflows at t = 28.6 s of the 80 s run
        ({"kind": "sine", "frequency": 1e307}, "frequency"),
        ({"kind": "sine", "amplitude": 1e308, "offset": 1e308}, "amplitude"),
        ({"kind": "square", "amplitude": 1e308, "offset": 1e308, "period": 40.0}, "amplitude"),
    ], ids=["sine-frequency", "sine-frequency-times-duration", "sine-amplitude-offset",
            "square-amplitude-offset"])
    def test_overflowing_reference_exits_2_before_step_0(self, tmp_path, capsys, monkeypatch,
                                                         reference, field):
        monkeypatch.setattr(PidBasis, "step", no_step)
        raw = json.loads(Path("scenarios/matched_lti.json").read_text())
        raw["reference"] = reference
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, edit", [
        ("matched_lti", {"duration": 1.0, "ts": 0.3, "evaluation_window": [0.7, 1.0]}),
        ("load_change", {"evaluation_window": [79.995, 80.0]}),  # the last step is t = 79.99
    ], ids=["between-steps", "after-last-step"])
    def test_window_with_no_step_exits_2(self, tmp_path, capsys, scenario, edit):
        raw = json.loads(Path(f"scenarios/{scenario}.json").read_text())
        raw.update(edit)
        with pytest.raises(ConfigError, match="holds no step time"):
            ScenarioConfig.from_dict(raw)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert "holds no step time" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_fixed_loop_exits_3(self, tmp_path, capsys):
        raw = {"name": "diverging", "reference": {"kind": "constant", "offset": 1.0},
               "estimator": {"mode": "fixed", "theta0": [1000, 0, 0]}}
        path = tmp_path / "diverging.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert re.search(r"step \d+ \(t=[\d.]+s\): diverged", capsys.readouterr().err)
        assert not out.exists()
        table = tmp_path / "table.json"
        assert main(["compare", str(path), "--methods", "fixed", "--out", str(table)]) == 3
        assert not table.exists()

    def test_overflowing_plant_exits_3_naming_the_step(self, tmp_path, capsys):
        # z ** n overflows in the Bouc-Wen step: a float power raises, it gives no inf
        raw = json.loads(Path("scenarios/load_change.json").read_text())
        raw.update(duration=5.0, evaluation_window=[0.0, 5.0])
        raw["estimator"]["mode"] = "fixed"
        raw["plant"]["params"] = {"gain": 1e300}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert "step 1 (t=0.010s): " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_2(self):
        assert main(["run", "no_such_scenario.json"]) == 2

    @pytest.mark.parametrize("argv, stderr", [
        pytest.param(["run", "x.json", "--out", "out"], "error: scenario {}/x.json is a directory\n",
                     id="scenario-is-a-directory"),
        pytest.param(["compare", ".", "--out", "table.csv"],  # x.json sorts after short.json
                     "error: scenario {}/x.json is a directory\n", id="compare-scenario-is-a-directory"),
        pytest.param(["run", "short.json", "--out", "taken"],
                     "error: --out {0}/taken: {0}/taken is not a directory\n", id="out-is-a-file"),
    ])
    def test_unusable_path_exits_2_and_writes_nothing(self, tmp_path, short_scenario, capsys,
                                                      argv, stderr):
        # each path is read before it is checked: no bare OSError such as [Errno 21]
        (tmp_path / "taken").write_text("")
        (tmp_path / "x.json").mkdir()
        before = tree(tmp_path)
        command, *paths = argv
        argv = [command, *(p if p.startswith("--") else str(tmp_path / p) for p in paths)]
        assert main(argv) == 2
        assert capsys.readouterr().err == stderr.format(tmp_path)
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("out, dataset, message", [
        pytest.param("taken", None, "taken is not a directory", id="out-is-a-file"),
        pytest.param("taken/out", None, "taken is not a directory", id="out-under-a-file"),
        pytest.param("out", "no/such/dir/x.csv", "no directory", id="dataset-dir-missing"),
        pytest.param("out", "out/sub/x.csv", "no directory", id="dataset-dir-under-out"),
        pytest.param("out", ".", "is a directory", id="dataset-is-a-directory"),
        pytest.param("out", "out/matched_lti_trace.csv", "is the same file as --out",
                     id="dataset-is-the-trace"),
        pytest.param("out", MATCHED_LTI, "is the same file as scenario",
                     id="dataset-is-the-scenario"),
        pytest.param("out", "/", "--save-dataset / is a directory",
                     id="dataset-has-no-file-name"),
        pytest.param("out", "", "--save-dataset '' is a directory", id="dataset-is-empty"),
    ])
    def test_unusable_output_exits_2_before_step_0(self, tmp_path, capsys, monkeypatch,
                                                   out, dataset, message):
        monkeypatch.setattr(PidBasis, "step", no_step)
        (tmp_path / "taken").write_text("")
        argv = ["run", "scenarios/matched_lti.json", "--out", str(tmp_path / out)]
        if dataset is not None:
            argv += ["--save-dataset", str(tmp_path / dataset) if dataset else ""]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --") and message in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["taken"]
        assert (tmp_path / "taken").read_text() == ""

    @pytest.mark.parametrize("file", ["short_trace.csv", "short_summary.json"])
    def test_output_that_is_the_scenario_exits_2_before_step_0(self, tmp_path, short_scenario,
                                                               capsys, monkeypatch, file):
        monkeypatch.setattr(PidBasis, "step", no_step)
        scenario = short_scenario.rename(tmp_path / file)  # the scenario is named "short"
        before = tree(tmp_path)
        assert main(["run", str(scenario), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {scenario} is the same file")
        assert tree(tmp_path) == before

    def test_dataset_of_a_one_step_run_exits_2_and_writes_nothing(self, tmp_path, capsys):
        scenario = tmp_path / "one.json"
        scenario.write_text(json.dumps({"name": "one", "duration": 0.01, "ts": 0.01,
                                        "estimator": {"mode": "fixed"}}))
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 0  # a 1-step run is fine
        assert main(["run", str(scenario), "--out", str(tmp_path / "o2"),
                     "--save-dataset", str(tmp_path / "one.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: --save-dataset needs a run of 2 steps")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.json", "out"]

    def test_dataset_may_go_into_the_out_directory_it_creates(self, tmp_path, short_scenario):
        out = tmp_path / "new"
        assert main(["run", str(short_scenario), "--out", f"{out}/",
                     "--save-dataset", str(out / "." / "experiment.csv")]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "experiment.csv", "short_summary.json", "short_trace.csv"]

    def test_huge_trial_count_loads_and_runs(self, tmp_path, short_scenario):
        raw = json.loads(short_scenario.read_text())
        raw["trials"] = 10**30  # no seeds: the trial seeds are range(trials), never a list
        short_scenario.write_text(json.dumps(raw))
        assert ScenarioConfig.from_json(short_scenario).trial_seeds()[-1] == 10**30 - 1
        assert main(["run", str(short_scenario), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "short_trace.csv").exists()

    @pytest.mark.parametrize("mode", ["noforget", "ef", "df", "er"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["mu", "epsilon", "r0", "r_inf"])
    def test_non_finite_estimator_field_exits_2(
        self, tmp_path, short_scenario, capsys, field, value, mode
    ):
        cfg = json.loads(short_scenario.read_text())
        cfg["estimator"].update({"mode": mode, field: value})
        short_scenario.write_text(json.dumps(cfg))
        assert main(["run", str(short_scenario), "--out", str(tmp_path)]) == 2
        assert re.search(rf"\b{field}\b", capsys.readouterr().err)

    def test_seed_flag_changes_noisy_trace(self, tmp_path, short_scenario):
        cfg = json.loads(short_scenario.read_text())
        cfg["name"] = "noisy"
        cfg["plant"]["noise_std"] = 0.1
        noisy = short_scenario.parent / "noisy.json"
        noisy.write_text(json.dumps(cfg))
        out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
        assert main(["run", str(noisy), "--seed", "1", "--out", str(out1)]) == 0
        assert main(["run", str(noisy), "--seed", "1", "--out", str(out2)]) == 0
        assert main(["run", str(noisy), "--seed", "2", "--out", str(out3)]) == 0
        t1 = (out1 / "noisy_trace.csv").read_bytes()
        t2 = (out2 / "noisy_trace.csv").read_bytes()
        t3 = (out3 / "noisy_trace.csv").read_bytes()
        assert t1 == t2
        assert t1 != t3

    def test_save_dataset(self, tmp_path, short_scenario):
        ds = tmp_path / "run_data.csv"
        code = main(
            ["run", str(short_scenario), "--out", str(tmp_path), "--save-dataset", str(ds)]
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run_data.csv", "short.json", "short_summary.json", "short_trace.csv"]

    def test_dataset_fields_match_trace_fields(self, tmp_path, short_scenario):
        ds = tmp_path / "run_data.csv"
        assert main(["run", str(short_scenario), "--out", str(tmp_path),
                     "--save-dataset", str(ds)]) == 0

        def fields(path):
            lines = path.read_bytes().split(b"\r\n")
            index = [lines[0].split(b",").index(c) for c in (b"t", b"r", b"u", b"y")]
            return [[row.split(b",")[i] for i in index] for row in lines[1:-1]]

        trace = fields(tmp_path / "short_trace.csv")
        assert len(trace) == 600
        assert fields(ds) == trace


class TestTune:
    def test_recovers_gains_from_csv(self, tmp_path, capsys):
        data = matched_loop_data(THETA_STAR)
        path = tmp_path / "experiment.csv"
        data.save(path)
        out = tmp_path / "gains.json"
        code = main(["tune", str(path), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "kp = 0.107" in printed
        assert "ki = 0.1515" in printed
        assert "kd = 0.0115" in printed
        tuned = json.loads(out.read_text())["theta0"]
        assert tuned == pytest.approx(THETA_STAR, rel=1e-4)

    def test_trace_and_its_dataset_tune_to_the_same_bytes(self, tmp_path, short_scenario):
        assert main(["run", str(short_scenario), "--out", str(tmp_path),
                     "--save-dataset", str(tmp_path / "data.csv")]) == 0
        for name in ("short_trace.csv", "data.csv"):
            assert main(["tune", str(tmp_path / name), "--out", str(tmp_path / f"{name}.json")]) == 0
        gains = (tmp_path / "data.csv.json").read_bytes()
        assert (tmp_path / "short_trace.csv.json").read_bytes() == gains

    def test_exact_zoh_tunes_against_the_zoh_reference_model(self, tmp_path):
        data = matched_loop_data(THETA_STAR)
        path = tmp_path / "experiment.csv"
        data.save(path)
        tuned = {}
        for flags in ([], ["--exact-zoh"]):
            assert main(["tune", str(path), *flags, "--out", str(tmp_path / "gains.json")]) == 0
            tuned[bool(flags)] = json.loads((tmp_path / "gains.json").read_text())["theta0"]
        zoh = batch_tune(data, ReferenceModel.first_order(data.ts, discretization="zoh"))
        assert tuned[True] == zoh.tolist()
        assert tuned[True] != tuned[False]

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("t,r,y\r\n0,1,0\r\n0.01,1,0.1\r\n", "no column u", id="no-u-column"),
            pytest.param("k,r,u,y\r\n0,1,2,0\r\n1,1,2,0\r\n", "header k,r,u,y has no column t",
                         id="no-t-column"),
            pytest.param("t,r,u,y\r\n0,1,2,0\r\n0.01,1,2\r\n", "line 3: 3 fields", id="short-row"),
            pytest.param("t,r,u,y\r\n0,1,2,0\r\n0.01,1,x,0\r\n", "line 3", id="not-a-number"),
            pytest.param("t,r,u,y\r\n", "no data rows", id="header-only"),
            pytest.param("", "empty file", id="empty"),
            pytest.param(None, "error: dataset / is a directory\n", id="no-file-name"),
            pytest.param(f't,r,u,y\r\n0,1,2,0\r\n0.01,1,2,"{"9" * 200_000}"\r\n',
                         "line 3: field larger than field limit", id="huge-quoted-field"),
            pytest.param(f't,r,u,"{"y" * 200_000}"\r\n0,1,2,0\r\n',
                         "line 1: field larger than field limit", id="huge-header-field"),
            pytest.param("t,r,u,y\r\n0,1,2,0\r\n0.01,1,nan,0\r\n", "non-finite samples",
                         id="non-finite-sample"),
            pytest.param("t,r,u,y\r\n0,1,2,0\r\n", "equal length >= 2", id="one-row"),
            pytest.param("t,r,u,y\r\n0,1,2,0\r\n-1,1,2,0\r\n", "ts must be positive",
                         id="t-goes-back"),
            pytest.param("t,r,u,y\r\n0,1,2,0\r\n0.01,1,2,0\r\n0.03,1,2,0\r\n",
                         "t is not evenly spaced by t[1] - t[0] = 0.01", id="uneven-t"),
            pytest.param("t,r,u,y\r\n0,1,2,0\r\n1,1,2,0\r\ninf,1,2,0\r\ninf,1,2,0\r\n",
                         "t is not evenly spaced", id="t-reaches-inf"),  # and no RuntimeWarning
            # text is decoded a block at a time: the header read meets the first bad byte, and
            # numpy's reader and then the csv loop meet the second, past the first block
            pytest.param(b"t,r,u,y\xff\r\n0,1,2,0\r\n", "can't decode byte 0xff",
                         id="undecodable-header"),
            pytest.param(b"t,r,u,y\r\n" + b"0,1,2,0\r\n" * 2000 + b"1,1,2\xff,0\r\n",
                         "can't decode byte 0xff", id="undecodable-data-row"),
        ],
    )
    def test_malformed_dataset_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "experiment.csv"
        if text is None:  # the dataset is "/", a directory
            path = Path("/")
        elif isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, newline="")
        assert main(["tune", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and (text is None or "experiment." in err)
        if isinstance(text, bytes):  # the file is named, and no line number is made up
            assert err.startswith(f"error: {path}: ") and "line" not in err

    @pytest.mark.parametrize("out", ["experiment.csv"], ids=["out-is-the-csv"])
    def test_out_that_is_the_dataset_exits_2_before_reading_it(self, tmp_path, capsys,
                                                               monkeypatch, out):
        path = tmp_path / "experiment.csv"
        matched_loop_data(THETA_STAR).save(path)
        monkeypatch.setattr(ClosedLoopDataset, "load",
                            classmethod(lambda cls, p: pytest.fail("the dataset was read")))
        before = tree(tmp_path)
        assert main(["tune", str(path), "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {tmp_path / out} is the same")
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("flag, field", [("--gm-dc-gain", "dc_gain"), ("--gm-tau", "tau")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_reference_model_exits_2(self, tmp_path, capsys, flag, field, value):
        path = tmp_path / "experiment.csv"
        matched_loop_data(THETA_STAR).save(path)
        assert main(["tune", str(path), f"{flag}={value}"]) == 2
        assert re.search(rf"\b{field}\b", capsys.readouterr().err)

    def test_zero_reference_model_gain_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "experiment.csv"
        matched_loop_data(THETA_STAR).save(path)
        assert main(["tune", str(path), "--gm-dc-gain", "0", "--out", str(tmp_path / "g.json")]) == 2
        assert capsys.readouterr().err == (
            "error: reference model dc_gain must be finite and nonzero, got 0.0\n")
        assert sorted(tmp_path.iterdir()) == [path]

    def test_degenerate_dataset_exits_3(self, tmp_path):
        flat = ClosedLoopDataset(
            u0=np.zeros(50), y0=np.zeros(50), r=np.zeros(50), ts=0.01
        )
        path = tmp_path / "flat.csv"
        flat.save(path)
        assert main(["tune", str(path)]) == 3

    def test_non_finite_cost_is_written_as_null(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        n = 1000
        path = tmp_path / "experiment.csv"
        ClosedLoopDataset(u0=1e170 * rng.standard_normal(n), y0=rng.standard_normal(n),
                          r=np.ones(n), ts=0.01).save(path)
        out = tmp_path / "gains.json"
        assert main(["tune", str(path), "--out", str(out)]) == 0
        printed = capsys.readouterr()
        assert "model-reference cost = inf" in printed.out
        assert re.fullmatch(r"warning: controller inverse is unstable \(zero magnitude \d+\.\d{4}\)\n",
                            printed.err)
        gains = strict_json(out)
        assert gains["cost"] is None
        assert sorted(gains) == ["cost", "theta0"] and len(gains["theta0"]) == 3


class TestSweepAndCompare:
    def test_compare_mu_writes_table(self, tmp_path, short_scenario, capsys):
        out = tmp_path / "table.csv"
        argv = ["compare", str(short_scenario), "--methods", "fixed,df", "--mu", "0.95,0.9"]
        assert main([*argv, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].endswith(",mu")
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["short/mu=0.95/fixed", "short/mu=0.95/df",
                         "short/mu=0.9/fixed", "short/mu=0.9/df"]
        assert [line.split(",")[-1] for line in lines[1:]] == ["0.95", "0.95", "0.9", "0.9"]
        # fixed ignores mu: its rows differ only in name and mu
        fixed = [line.split(",")[1:-1] for line in lines[1::2]]
        assert fixed[0] == fixed[1]
        assert "mu=" in capsys.readouterr().out.replace(" ", "")

    def test_compare_mu_runs_all_values_on_hysteretic_plant(self, tmp_path):
        raw = json.loads((MATCHED_LTI.parent / "method_comparison.json").read_text())
        raw.update(duration=20.0, trials=2, evaluation_window=[5.0, 20.0])
        scenario, out = tmp_path / "cut.json", tmp_path / "table.json"
        scenario.write_text(json.dumps(raw))
        mus = [0.99, 0.90, 0.85, 0.80, 0.75]
        argv = ["compare", str(scenario), "--methods", "df", "--mu", ",".join(map(str, mus))]
        assert main([*argv, "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert [row["mu"] for row in rows] == mus
        for row in rows:
            assert np.isfinite(row["mae_median"])

    @pytest.mark.parametrize("mu", ["nan", "0", "1.5", "inf", "-0.5", "abc", "", "0.9,,0.8"])
    def test_bad_mu_exits_2_before_any_trial(self, short_scenario, capsys, monkeypatch, mu):
        monkeypatch.setattr(harness, "run_scenario", lambda *a, **k: pytest.fail("a trial ran"))
        assert main(["compare", str(short_scenario), "--methods", "df", "--mu", mu]) == 2
        assert capsys.readouterr().err.startswith(f"error: --mu {mu!r} ")

    def test_mu_is_checked_where_no_estimator_uses_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "run_scenario", lambda *a, **k: pytest.fail("a trial ran"))
        scenario = tmp_path / "fixed.json"
        scenario.write_text(json.dumps({"name": "fixed", "estimator": {"mode": "fixed"}}))
        assert main(["compare", str(scenario), "--methods", "fixed", "--mu", "1.5"]) == 2
        assert capsys.readouterr().err.startswith("error: --mu '1.5' ")

    def test_subnormal_mu_runs(self):
        assert main(["compare", str(MATCHED_LTI), "--methods", "df", "--mu", "1e-320"]) == 0

    COMPARE = ["compare", "--methods", "df"]
    COMPARE_MU = [*COMPARE, "--mu", "0.9"]

    @pytest.mark.parametrize("command, out", [
        (COMPARE_MU, "out"), (COMPARE, "out"),
        (COMPARE_MU, "no/table.csv"), (COMPARE, "no/table.csv"),
        (COMPARE_MU, "short.json"), (COMPARE, "short.json"),
    ], ids=["mu", "compare", "mu-out-dir-missing", "compare-out-dir-missing",
            "mu-out-is-the-scenario", "compare-out-is-the-scenario"])
    def test_out_that_is_a_directory_exits_2(self, tmp_path, short_scenario, capsys, monkeypatch,
                                             command, out):
        monkeypatch.setattr(harness, "run_scenario", lambda *a, **k: pytest.fail("a trial ran"))
        (tmp_path / "out").mkdir()
        before = tree(tmp_path)
        assert main([*command, str(short_scenario), "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {tmp_path / out}")
        assert tree(tmp_path) == before

    def test_compare_json_format(self, tmp_path, short_scenario):
        # JSON when --out ends in .json, else CSV, each equal to the rows (no mu column)
        argv = ["compare", str(short_scenario), "--methods", "fixed,df"]
        rows = harness.compare_methods(harness.method_variants(
            ScenarioConfig.from_json(short_scenario), ["fixed", "df"]))
        assert main([*argv, "--out", str(tmp_path / "t.json")]) == 0
        assert strict_json(tmp_path / "t.json") == rows
        for name in ["t.csv", "t"]:
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
            with open(tmp_path / name, newline="") as fh:
                assert list(csv.DictReader(fh)) == [{k: str(v) for k, v in row.items()}
                                                    for row in rows]

    def test_format_option_is_gone(self, tmp_path, short_scenario, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["compare", str(short_scenario), "--format", "json",
                  "--out", str(tmp_path / "t.json")])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_compare_directory(self, tmp_path, short_scenario, capsys):
        code = main(["compare", str(short_scenario.parent)])
        assert code == 0
        assert "mae_median" in capsys.readouterr().out

    @pytest.fixture
    def scenario_dir(self, tmp_path, short_scenario):
        """A directory holding b.json (written first) and a.json, two scenarios named b and a."""
        raw = json.loads(short_scenario.read_text())
        folder = tmp_path / "scenarios"
        folder.mkdir()
        for name, offset in [("b", 2.0), ("a", 1.0)]:
            reference = {"kind": "constant", "offset": offset}
            (folder / f"{name}.json").write_text(json.dumps({**raw, "name": name,
                                                             "reference": reference}))
        return folder

    def test_compare_directory_compares_each_file_over_methods(self, scenario_dir, capsys):
        assert main(["compare", str(scenario_dir), "--methods", "ef"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines[1:]] == [["a/ef", "ef"], ["b/ef", "ef"]]

    def test_compare_directory_is_the_per_file_tables(self, scenario_dir):
        def table(path):
            out = scenario_dir.parent / "table.json"
            argv = ["compare", str(path), "--methods", "fixed,df"]
            assert main([*argv, "--out", str(out)]) == 0
            return json.loads(out.read_text())

        together = table(scenario_dir)
        assert together == table(scenario_dir / "a.json") + table(scenario_dir / "b.json")
        assert [r["name"] for r in together] == ["a/fixed", "a/df", "b/fixed", "b/df"]

    def test_compare_directory_with_no_methods_exits_2(self, scenario_dir, capsys, monkeypatch):
        monkeypatch.setattr(harness, "run_scenario", lambda *a, **k: pytest.fail("a run started"))
        assert main(["compare", str(scenario_dir), "--methods", ""]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text, message", [
        ("{", "Expecting property name"),
        (None, "duration must be positive and finite, got -1.0"),
    ], ids=["not-json", "negative-duration"])
    def test_compare_directory_names_the_file_that_fails_to_load(self, scenario_dir, capsys,
                                                                 text, message):
        bad = scenario_dir / "b.json"
        bad.write_text(text or json.dumps({**json.loads(bad.read_text()), "duration": -1}))
        assert main(["compare", str(scenario_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and message in err

    def test_compare_directory_without_scenarios_exits_2(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("")
        assert main(["compare", str(tmp_path)]) == 2
        assert "no scenario JSON files" in capsys.readouterr().err

    def test_compare_directory_checks_every_file_before_running(
        self, tmp_path, short_scenario, monkeypatch
    ):
        # a.json is good and sorts first; b.json fails to load, so nothing runs
        short_scenario.rename(tmp_path / "a.json")
        raw = json.loads((tmp_path / "a.json").read_text())
        raw["reference"]["kind"] = "ramp"
        (tmp_path / "b.json").write_text(json.dumps(raw))
        calls = []
        run = harness.run_scenario

        def counted(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(harness, "run_scenario", counted)
        assert main(["compare", str(tmp_path)]) == 2
        assert calls == []


SWEEP_IS_GONE = """\
usage: fritpid [-h] {tune,run,compare} ...
fritpid: error: argument command: invalid choice: 'sweep' (choose from 'tune', 'run', 'compare')
"""
EF_BREAKS_DOWN = ("numerical breakdown: step 4002 (t=40.020s): information matrix is not "
                  "positive definite (scaled minors 0.9000099006879578, 0.0)\n")


@pytest.mark.parametrize("commands, code, stderr", [
    pytest.param([["run", str(MATCHED_LTI), "--out", ".", "--save-dataset", "experiment.csv"],
                  ["tune", "experiment.csv", "--out", "gains.json"]], 0, "", id="offline-flow"),
    pytest.param([["run", str(MATCHED_LTI.with_name("method_comparison.json")), "--seed", "0",
                   "--out", ".", "--save-dataset", "record.csv"], ["tune", "record.csv"]], 0,
                 "warning: controller inverse is unstable (zero magnitude 16.6624)\n",
                 id="unstable-inverse"),
    pytest.param([["tune", "huge.csv"]], 3,
                 "numerical breakdown: regressor normal matrix is not finite\n",
                 id="overflowing-normal-matrix"),  # and no LAPACK DLASCL complaint
    pytest.param([["compare", str(MATCHED_LTI), "--methods", "ef,df", "--mu", "0.99,0.9"]], 3,
                 EF_BREAKS_DOWN, id="ef-breaks-down"),
    pytest.param([["sweep", str(MATCHED_LTI)]], 2, SWEEP_IS_GONE, id="sweep-is-gone"),
    pytest.param([["tune", "header_only.csv"]], 2,  # and no numpy "input contained no data"
                 "error: header_only.csv: header but no data rows\n", id="header-only"),
])
def test_real_process(tmp_path, commands, code, stderr):
    """Each command as `python -m fritpid` in tmp_path, in turn: the last one exits with
    `code` and writes exactly `stderr`, and every JSON file in tmp_path is strict JSON.
    Only a real process shows the exit status and what reaches file descriptor 2."""
    data = matched_loop_data(THETA_STAR, n=500)
    data.y0 *= 1e300  # the normal matrix overflows
    data.save(tmp_path / "huge.csv")
    (tmp_path / "header_only.csv").write_bytes(b"t,r,u,y\r\n")
    env = {**os.environ, "PYTHONPATH": str(MATCHED_LTI.parents[1] / "src")}
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "fritpid", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (code, stderr)
    for path in tmp_path.glob("*.json"):
        strict_json(path)
