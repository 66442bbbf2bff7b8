"""The paired verdicts of scripts/trajectory.py on the checked-in BENCH files."""

import json
from pathlib import Path

import pytest

import trajectory

ROOT = Path(__file__).resolve().parent.parent
BETTER = {m["name"]: m["better"]
          for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


@pytest.mark.parametrize("n, k, confidence", [(5, 1, 1 - 2 / 32), (10, 9, 1 - 50 / 1024)])
def test_signed_rank_interval(n, k, confidence):
    assert trajectory.signed_rank_k(n) == (k, confidence)


@pytest.mark.parametrize("file, group, what, cell", [
    ("BENCH_30.json", "compare_load_change", "step_us", "1.007 [0.976, 1.085] unresolved"),
    ("BENCH_30.json", "compare_load_change", "setup_s", "1.165 [0.997, 1.366] unresolved"),
    ("BENCH_30.json", "record_and_tune", "tune_s", "0.921 [0.839, 1.025] unresolved"),
    ("BENCH_30.json", "cli_wall_s", "compare scenarios/load_change.json",
     "1.005 [0.916, 1.083] unresolved"),
    ("BENCH_27.json", "record_and_tune", "tune_s", "0.759 [0.644, 0.800] better"),
    ("BENCH_27.json", "compare_load_change", "peak_rss_mb", "0.994 [0.992, 0.996] better"),
])
def test_verdicts_of_checked_in_files(file, group, what, cell):
    parent, change = json.loads((ROOT / file).read_text())["checkouts"].values()
    v = trajectory.verdicts(parent, change, BETTER)[group][what]
    assert f"{v['ratio']:.3f} [{v['low']:.3f}, {v['high']:.3f}] {v['verdict']}" == cell


def test_a_higher_better_metric_that_falls_is_worse():
    v = trajectory.paired_verdict([1.0] * 5, [0.9, 0.91, 0.92, 0.93, 0.94], "higher")
    assert v["verdict"] == "worse"
    assert trajectory.paired_verdict([1.0] * 5, [0.9] * 5, "lower")["verdict"] == "better"
