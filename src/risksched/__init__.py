"""Risk-sensitive transmission scheduling for remote state estimation.

A sensor decides, stage by stage, whether to pay for a transmission over a
two-state Markov channel so that the exponential-of-total-cost objective of
the remote estimation error is minimized.  The package solves the resulting
finite-horizon risk-sensitive MDP on a grid, extracts threshold policies,
and verifies them against closed-form, exact-enumeration, and Monte Carlo
oracles.
"""

from .model import (
    ModelParams,
    SimTrace,
    stage_cost,
    stage_cost_raw,
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
from .oracle import (
    BruteForceResult,
    EnumerationBudgetError,
    OracleMismatchError,
    QuantizedChain,
    brute_force_optimal,
    chain_policy,
    exact_policy_cost,
    quantize,
)
from .sim import (
    RiskEstimate,
    estimate_risk_objective,
    rollout,
)

__version__ = "0.1.0"
