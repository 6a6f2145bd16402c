"""Risk-sensitive transmission scheduling for remote state estimation.

A sensor decides, stage by stage, whether to pay for a transmission over a
two-state Markov channel so that the exponential-of-total-cost objective of
the remote estimation error is minimized.  The package solves the resulting
finite-horizon risk-sensitive MDP on a grid, extracts threshold policies,
and verifies them against closed-form, exact-enumeration, and Monte Carlo
oracles.
"""

import importlib

from .model import (
    ModelParams,
    SimTrace,
    stage_cost,
    step_channel,
    step_error,
    step_source,
    update_estimate,
)
from .solver import (
    FeasibilityReport,
    GridSpec,
    InfeasibleModelError,
    LogValueTable,
    PolicyTable,
    QuadratureSpec,
    TruncationReport,
    ValueTable,
    auto_delta_max,
    check_feasibility,
    closed_form_never_transmit,
    risk_neutral_value_iterate,
    truncation_report,
    value_iterate,
)
from .policy import (
    NonThresholdPolicyError,
    ThresholdSchedule,
    always_transmit_policy,
    decide,
    extract_thresholds,
    idle_policy,
    threshold_policy,
)

# oracle's and sim's names load their module on first use (PEP 562), so a
# command that needs neither does not compile or import them.
_LAZY = {
    "oracle": (
        "BruteForceResult",
        "EnumerationBudgetError",
        "OracleMismatchError",
        "QuantizedChain",
        "brute_force_optimal",
        "chain_policy",
        "exact_policy_cost",
        "quantize",
    ),
    "sim": ("RiskEstimate", "estimate_risk_objective", "rollout"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
