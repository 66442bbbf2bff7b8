"""Data-driven PID tuning from closed-loop data.

Offline tuning (fictitious-reference batch least squares) and online
adaptive tuning by recursive least squares with exponential, directional,
or resetting forgetting, plus simulated plants and a scenario harness for
closed-loop experiments.
"""

from .adaptive import (
    DenominatorUnderflowError,
    DirectionalForgettingRls,
    Estimator,
    ExponentialResettingRls,
    NumericalBreakdownError,
    RegressorGenerator,
    RlsEstimator,
    SingularInformationError,
    symmetric_eigen_bounds,
)
from .controller import PidBasis, PidController, as_gains, pid_filter
from .frit import (
    ClosedLoopDataset,
    InverseNotProperError,
    RankDeficientError,
    UnstableInverseWarning,
    batch_tune,
    fictitious_reference,
    frit_cost,
)
from .harness import (
    ConfigError,
    RunTrace,
    ScenarioConfig,
    compare_methods,
    method_variants,
    run_scenario,
)
from .lti import RationalFilter, ReferenceModel, one_minus
from .plant import BoucWenParams, BoucWenPlant, LtiPlant

__version__ = "0.1.0"

__all__ = [
    "BoucWenParams",
    "BoucWenPlant",
    "ClosedLoopDataset",
    "ConfigError",
    "DenominatorUnderflowError",
    "DirectionalForgettingRls",
    "Estimator",
    "ExponentialResettingRls",
    "InverseNotProperError",
    "LtiPlant",
    "NumericalBreakdownError",
    "PidBasis",
    "PidController",
    "RankDeficientError",
    "RationalFilter",
    "ReferenceModel",
    "RegressorGenerator",
    "RlsEstimator",
    "RunTrace",
    "ScenarioConfig",
    "SingularInformationError",
    "UnstableInverseWarning",
    "as_gains",
    "batch_tune",
    "compare_methods",
    "fictitious_reference",
    "frit_cost",
    "method_variants",
    "one_minus",
    "pid_filter",
    "run_scenario",
    "symmetric_eigen_bounds",
]
