"""The source paper's claims about directional forgetting, as executable checks.

The abstract claims that adaptive FRIT with exponential forgetting (``ef``)
degrades or goes unstable without persistent excitation while directional
forgetting (``df``) does not, and that ``df`` is robust to changes in the
plant's characteristics and in the target trajectory.  The first three
checks run a bundled scenario over its own trial seeds, the fourth a
scenario written in the test:

* load change: on ``load_change`` (the Bouc-Wen plant's gain and time
  constant switch at 50 s), df's worst-trial MAE is below the best trial of
  both ef and er;
* target change: on ``method_comparison`` (a staircase target), df's
  worst-trial MAE is below the best trial of every other mode;
* no persistent excitation: on ``matched_lti`` (noise-free, the loop settles
  on each half-period of a slow square wave), ef breaks down, while df and
  er track the reference model and keep the covariance bounded by P(0);
* no persistent excitation on the paper's plant class: on the noise-free
  Bouc-Wen plant holding a constant 50 mm, ef breaks down, while df and er
  track the reference model and keep the covariance bounded by P(0).

Not checked here: that ``matched_lti``'s windowed excitation is below a
floor, which needs a function that measures excitation over a trace.

Open question: the abstract names one method "based on DF and exponential
resetting", while the package has ``df`` and ``er`` as two modes.  A df rule
with er's floor (1 - mu)*r_inf*I was prototyped: it matched df on the noisy
scenarios and was 16x worse on ``matched_lti``.  Without the paper's body
there is no ground for a combined mode, so none is added.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from fritpid.adaptive import NumericalBreakdownError
from fritpid.harness import (
    ESTIMATOR_MODES,
    ScenarioConfig,
    compare_methods,
    method_variants,
    run_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario(name: str, mode: str | None = None) -> ScenarioConfig:
    cfg = ScenarioConfig.from_json(SCENARIOS / f"{name}.json")
    return cfg if mode is None else replace(cfg, estimator=replace(cfg.estimator, mode=mode))


def rows_by_mode(name: str, modes) -> dict:
    return {row["mode"]: row for row in compare_methods(method_variants(scenario(name), modes))}


def test_df_is_robust_to_a_load_change():
    rows = rows_by_mode("load_change", ["ef", "df", "er"])
    assert rows["df"]["mae_max"] < min(rows["ef"]["mae_min"], rows["er"]["mae_min"])


def test_df_is_robust_to_a_target_change():
    rows = rows_by_mode("method_comparison", ESTIMATOR_MODES)
    assert rows["df"]["mae_max"] < min(row["mae_min"] for mode, row in rows.items()
                                       if mode != "df")


def test_ef_breaks_down_without_persistent_excitation():
    with pytest.raises(NumericalBreakdownError, match=r"^step 4002 \(t=40\.020s\): "
                       "information matrix is not positive definite"):
        run_scenario(scenario("matched_lti", "ef"))


@pytest.mark.parametrize("mode", ["df", "er"])
def test_df_and_er_hold_without_persistent_excitation(mode):
    cfg = scenario("matched_lti", mode)
    trace = run_scenario(cfg)
    assert trace.mae < 1e-6
    # P(0) = I / r0 bounds P up to rounding: er's pmax peaks at 100.00000095 for 1/r0 = 100
    assert trace["pmax"].max() <= (1.0 / cfg.estimator.r0) * (1.0 + 1e-6)


def test_no_persistent_excitation_on_the_hysteretic_plant():
    cfg = ScenarioConfig.from_dict({
        "name": "hold_50mm", "duration": 200.0,
        "reference": {"kind": "constant", "offset": 50.0},
        "estimator": {"mode": "ef", "mu": 0.9, "theta0": [0.1, 0.1, 0.01]},
        "plant": {"kind": "bouc_wen", "noise_std": 0.0},
        "evaluation_window": [150.0, 200.0],
    })
    with pytest.raises(NumericalBreakdownError, match="information matrix is not positive definite"):
        run_scenario(cfg)
    for mode in ("df", "er"):
        trace = run_scenario(replace(cfg, estimator=replace(cfg.estimator, mode=mode)))
        assert trace.mae < 1e-6
        assert trace["pmax"].max() <= (1.0 / cfg.estimator.r0) * (1.0 + 1e-6)
