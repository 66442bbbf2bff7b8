"""The paired verdicts of scripts/trajectory.py on the checked-in BENCH files."""

import json
from collections import Counter
from pathlib import Path

import pytest

import trajectory

ROOT = Path(__file__).resolve().parent.parent
RULES = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
MIXED = "compare scenarios/load_change.json --mu 0.99,0.9"


def bench_verdicts(file):
    parent, change = json.loads((ROOT / file).read_text())["checkouts"].values()
    return trajectory.verdicts(parent, change, RULES)


@pytest.mark.parametrize("file, group, what, cell", [
    ("BENCH_30.json", "compare_load_change", "setup_s", "1.290 4/10 worse"),
    ("BENCH_30.json", "long_run_lti", "setup_s", "0.980 7/10 unresolved"),
    ("BENCH_30.json", "record_and_tune", "setup_s", "1.085 3/10 unresolved"),
    ("BENCH_30.json", "record_and_tune", "wall_s", "0.993 8/10 unresolved"),
    ("BENCH_30.json", "record_and_tune", "step_us", "0.989 8/10 unresolved"),
    ("BENCH_30.json", "record_and_tune", "record_s", "0.989 8/10 unresolved"),
    ("BENCH_30.json", "compare_load_change", "step_us", "1.006 5/10 within"),
    ("BENCH_30.json", "record_and_tune", "tune_s", "0.963 8/10 within"),
    ("BENCH_30.json", "cli_wall_s", "compare scenarios/load_change.json", "1.000 2/5 within"),
    ("BENCH_30.json", "cli_wall_s", MIXED, "0.976 4/5 within"),
    ("BENCH_27.json", "record_and_tune", "tune_s", "0.733 5/5 better"),
    ("BENCH_27.json", "record_and_tune", "wall_s", "0.838 5/5 better"),
    ("BENCH_27.json", "compare_load_change", "peak_rss_mb", "0.995 5/5 better"),
    ("BENCH_27.json", "long_run_lti", "setup_s", "1.011 4/5 unresolved"),
    ("BENCH_27.json", "record_and_tune", "setup_s", "0.681 4/5 within"),
    ("BENCH_38.json", "compare_load_change", "peak_rss_mb", "0.947 10/10 better"),
])
def test_verdicts_of_checked_in_files(file, group, what, cell):
    v = bench_verdicts(file)[group][what]
    assert f"{v['ratio']:.3f} {v['wins']}/{v['n']} {v['verdict']}" == cell


@pytest.mark.parametrize("file, counts, code", [
    ("BENCH_30.json", {"worse": 1, "unresolved": 5, "within": 17}, 1),
    ("BENCH_27.json", {"better": 3, "unresolved": 1, "within": 17}, 0),
    ("BENCH_38.json", {"better": 1, "unresolved": 3, "within": 19}, 0),
])
def test_every_cell_and_the_exit_code(file, counts, code, capsys):
    cells = Counter(v["verdict"] for group in bench_verdicts(file).values()
                    for v in group.values())
    assert cells == counts
    assert trajectory.main(["--verdict", str(ROOT / file)]) == code
    assert capsys.readouterr().out.count("\n") == 1 + sum(counts.values())


def test_a_tie_counts_for_neither_side():
    v = trajectory.paired_verdict([1.0] * 10, [1.0] * 9 + [0.5], "lower", 0.25)
    assert (v["wins"], v["verdict"]) == (1, "within")
    assert trajectory.paired_verdict([1.0] * 10, [1.0] * 10, "lower", 0.25)["wins"] == 0


def test_a_higher_better_metric_that_falls_is_worse():
    parent, change = [1.0] * 5, [0.9, 0.91, 0.92, 0.93, 0.94]  # an 8 % drop
    assert trajectory.paired_verdict(parent, change, "higher", 0.25)["verdict"] == "within"
    assert trajectory.paired_verdict(parent, change, "higher", 0.01)["verdict"] == "worse"
    assert trajectory.paired_verdict(parent, [0.9] * 5, "lower", 0.25)["verdict"] == "better"


def test_a_zero_parent_median_is_judged_by_the_same_rule(capsys):
    def judge(change):
        return trajectory.paired_verdict([0.0] * 10, change, "higher", 0.01)

    assert judge([0.0] * 10) == {"ratio": None, "wins": 0, "n": 10, "iqr_pct": None,
                                 "verdict": "within"}
    assert judge([1.0] * 10)["verdict"] == "better"
    assert judge([0.0] * 9 + [-1.0])["verdict"] == "within"
    assert judge([-1.0] * 10)["verdict"] == "worse"
    runs = [{"workload": "w", "seed": s, "metrics": {"ok_frac": 0.0}} for s in range(10)]
    assert not trajectory.add_verdicts({"parent": {"runs": runs}, "change": {"runs": runs}}, RULES)
    assert "w  ok_frac  n/a  0/10 won  IQR n/a  within" in capsys.readouterr().out
