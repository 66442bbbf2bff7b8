"""Every golden run reproduces its trace to the bit (see scripts/golden_traces.py)."""

import golden_traces as golden


def test_traces_match_golden_digests():
    stored = golden.load()
    moved = golden.differences(stored["runs"], golden.compute())
    assert not moved, (
        f"{len(moved)} golden trace(s) moved on {golden.platform_facts()} "
        f"(digests generated on {stored['generated_on']}); regenerate with "
        "scripts/golden_traces.py --write only for an intended numerical change:\n"
        + "\n".join(moved)
    )


def test_golden_file_covers_every_run():
    runs = golden.load()["runs"]
    scenarios = len(golden.SCENARIOS) + 1  # the files, and method_comparison at mu = 0.9
    assert len(runs) == scenarios * len(golden.ESTIMATOR_MODES) * len(golden.SEEDS)
    breakdowns = {k: v for k, v in runs.items() if isinstance(v, dict)}
    # the one known breakdown: exponential forgetting winds up on matched_lti
    assert sorted(breakdowns) == ["matched_lti/ef/seed0", "matched_lti/ef/seed7"]
    assert all(v["breakdown"] == 4002 for v in breakdowns.values())
    assert all("information matrix is not positive definite" in v["message"]
               for v in breakdowns.values())
