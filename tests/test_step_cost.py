"""The opcodes of a closed-loop run match their pinned counts (see scripts/step_cost.py)."""

import sys

import pytest

import step_cost


def test_step_cost_matches_pinned_counts():
    version = step_cost.minor_version()
    pinned = step_cost.load().get(version)
    if pinned is None:
        pytest.skip(f"no step-cost counts for Python {version}; record them with "
                    "`PYTHONPATH=src python scripts/step_cost.py --write`")
    counts = step_cost.compute()
    assert counts == pinned, (
        f"opcodes over {step_cost.STEPS} steps moved: pinned {pinned}, counted {counts}; "
        "record with scripts/step_cost.py --write only for an intended change to the loop"
    )


def test_counting_restores_an_earlier_tracer():
    def earlier(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(earlier)
    try:
        cfg = step_cost.ScenarioConfig(duration=0.05)
        assert sum(step_cost.count_opcodes(cfg).values()) > 0
        assert sys.gettrace() is earlier
    finally:
        sys.settrace(previous)
