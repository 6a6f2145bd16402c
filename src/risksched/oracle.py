"""Exact verification on small quantized instances.

The continuous error is replaced by a finite uniform ladder of states and
the Gaussian noise by a closed-form Gauss-Hermite atom set, giving a finite
MDP whose risk-sensitive cost E[exp(gamma * sum d)] is computable exactly.
Its Bellman stage gathers the next values at each atom's snapped state, so
the oracle calls neither LAPACK nor BLAS.  Action tables are indexed by
stages to go, (T + 1, n, 2) with row 0 unused, as in the solver.
Three routes must then agree: enumeration of every even magnitude-threshold
policy (one cut on |delta| per stage and channel), backward induction, and
one evaluation of the certified table, from every start in one pass.
Enumeration walks the policies stage by stage, so policies that share their
last stages share that tail's values; the cuts include 0 and +inf, so the
first wall stage is an elementwise min of transmit and idle.  The three
apply one chain Bellman stage, so their agreement tests not that stage but
that the optimum is an even magnitude-threshold policy, the paper's
structural result, and that the certified table evaluates back to its own
value.  The unit tests guard the stage with hand-computed expectations.  A
value past the float range is +inf: such a policy never wins a minimum, and
equal +inf entries agree.  certify turns a certified result into the
`oracle` command's report: those agreements, the optimum's structure, and
whether a refined chain comes closer to the solver's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .solver import GridSpec

__all__ = [
    "EnumerationBudgetError",
    "OracleMismatchError",
    "QuantizedChain",
    "BruteForceResult",
    "quantize",
    "exact_policy_cost",
    "brute_force_optimal",
    "certify",
    "chain_policy",
    "enumeration_size",
]

# Enumeration walks (n_magnitudes + 1)**(2 * stages) policies; the count
# must stay below this before we start.
ENUM_BUDGET = 1 << 21


class EnumerationBudgetError(RuntimeError):
    pass


class OracleMismatchError(AssertionError):
    """Enumeration and backward induction disagreed beyond tolerance."""


@dataclass(frozen=True)
class QuantizedChain:
    """Finite-state image of the error/channel dynamics.

    drift_to[i, k] is the snapped state index of a*s_i + w_k, reset_to[k]
    that of w_k alone; snapping is nearest-state with ties toward smaller
    |value|, so the chain is closed by construction.  The noise atoms are
    recorded verbatim (noise_scheme names the quantization) so any outside
    tool can re-derive every number in a report.
    """

    delta_states: np.ndarray
    noise_values: np.ndarray
    noise_probs: np.ndarray
    channel: np.ndarray
    params: ModelParams
    drift_to: np.ndarray
    reset_to: np.ndarray
    noise_scheme: str

    @property
    def n_states(self) -> int:
        return len(self.delta_states)

    def state_index(self, delta: float) -> int:
        return int(_snap(np.asarray(delta, dtype=float), self.delta_states))

    def drift_matrix(self) -> np.ndarray:
        """M[i, i+] = P(next state i+ | state i, no delivery).

        The chain's law in matrix form, for outside checks: the Bellman
        stage gathers over drift_to and reset_to instead.
        """
        n = self.n_states
        m = np.zeros((n, n))
        np.add.at(m, (np.arange(n)[:, None], self.drift_to), self.noise_probs[None, :])
        return m

    def reset_vector(self) -> np.ndarray:
        """m[i+] = P(next state i+ | delivery)."""
        n = self.n_states
        v = np.zeros(n)
        np.add.at(v, self.reset_to, self.noise_probs)
        return v


def _snap(x: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Nearest state index; exact ties resolve toward smaller |value|."""
    h = states[1] - states[0]
    # a value past an end snaps to that end, with no rounded-off tie or int overflow
    x = np.clip(x, states[0], states[-1])
    lo = np.clip(np.floor((x - states[0]) / h).astype(int), 0, len(states) - 2)
    hi = lo + 1
    d_lo = np.abs(x - states[lo])
    d_hi = np.abs(x - states[hi])
    take_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (np.abs(states[hi]) < np.abs(states[lo])))
    return np.where(take_hi, hi, lo)


def _check_n_delta(n_delta: int) -> None:
    if n_delta < 3 or n_delta % 2 == 0:
        raise ValueError(f"n_delta must be odd and >= 3, got {n_delta}")


def _noise_atoms(sigma: float, noise_points: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Hermite atoms in closed form, which match the N(0, sigma^2)
    # moments up to degree 2*noise_points - 1: 2 points are +-sigma at 1/2;
    # 3 are {0, +-sigma*sqrt(3)} at {2/3, 1/6}; 5 are {0, +-sigma*sqrt(5 -+ sqrt(10))}
    # at {8/15, (7 +- 2*sqrt(10))/60}.  The 5-point inner atom and outer
    # probability are taken as sqrt(15)/sqrt(5 + sqrt(10)) and
    # 3/(20*(7 + 2*sqrt(10))), which cancel nothing: each 5-point constant is
    # then the correctly rounded value.  The positive half is mirrored, so the
    # atoms are odd and their probabilities even bitwise.
    if noise_points == 2:
        centre, half, half_probs = [], [1.0], [0.5]
    elif noise_points == 3:
        centre, half, half_probs = [2.0 / 3.0], [math.sqrt(3.0)], [1.0 / 6.0]
    else:
        r = math.sqrt(10.0)
        centre = [8.0 / 15.0]
        half = [math.sqrt(15.0) / math.sqrt(5.0 + r), math.sqrt(5.0 + r)]
        half_probs = [(7.0 + 2.0 * r) / 60.0, 3.0 / (20.0 * (7.0 + 2.0 * r))]
    pos = sigma * np.array(half)
    values = np.concatenate([-pos[::-1], np.zeros(len(centre)), pos])
    probs = np.concatenate([half_probs[::-1], centre, half_probs])
    return values, probs


def quantize(
    params: ModelParams,
    n_delta: int,
    noise_points: int,
    delta_q: float | None = None,
) -> QuantizedChain:
    """Uniform Delta ladder on [-delta_q, delta_q] with moment-matched noise.

    The ladder mirrors its non-negative half, so it is symmetric bitwise and
    has exactly (n_delta + 1) // 2 distinct magnitudes.  _snap divides
    offsets across the ladder by its step, so 2 * delta_q must be finite
    and the states must rise strictly (a subnormal delta_q merges them).
    """
    _check_n_delta(n_delta)
    if noise_points not in (2, 3, 5):
        raise ValueError(f"noise_points must be 2, 3 or 5, got {noise_points}")
    if delta_q is None:
        delta_q = 4.0 * params.sigma
    if not 0 < delta_q < np.inf:
        raise ValueError(f"delta_q must be finite and > 0, got {delta_q}")
    states = GridSpec.unfold(np.linspace(0.0, delta_q, (n_delta + 1) // 2), odd=True)
    if not (math.isfinite(2.0 * float(delta_q)) and np.all(np.diff(states) > 0)):
        raise ValueError(f"delta_q = {delta_q} needs a finite 2 * delta_q and {n_delta} distinct states")
    values, probs = _noise_atoms(params.sigma, noise_points)
    with np.errstate(over="ignore"):  # |a| * delta_q past the float range snaps to an end
        drift_to = _snap(params.a * states[:, None] + values[None, :], states)
    reset_to = _snap(values, states)
    return QuantizedChain(
        delta_states=states,
        noise_values=values,
        noise_probs=probs,
        channel=params.channel_matrix(),
        params=params,
        drift_to=drift_to,
        reset_to=reset_to,
        noise_scheme=f"gauss-hermite-{noise_points}",
    )


def _stage_costs(chain: QuantizedChain) -> tuple[np.ndarray, np.ndarray]:
    """exp-costs exp(gamma*d) for u=0 and u=1, each (n_states, 2); +inf
    past the float range."""
    p = chain.params
    with np.errstate(over="ignore"):
        z = np.square(chain.delta_states)
        e0 = np.exp(p.gamma * z)[:, None] * np.ones((1, 2))
        e1 = np.empty_like(e0)
        e1[:, 0] = np.exp(p.gamma * (p.lam + z))
        e1[:, 1] = np.exp(p.gamma * p.lam)
    return e0, e1


def _expect(g: np.ndarray, to: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """sum_k probs[k] * g[..., to[..., k], :]: the expectation of g over the
    noise atoms, gathered at their snapped states."""
    acc = g[..., to[..., 0], :] * probs[0]
    for k in range(1, len(probs)):
        acc += g[..., to[..., k], :] * probs[k]
    return acc


def _mix(x: np.ndarray, row: np.ndarray) -> np.ndarray:
    """sum_c row[c] * x[..., c] over x's next-channel axis, for one row of
    the channel law.

    Taken from the likelier channel b as x[b] + row[o] * (x[o] - x[b]), so
    equal entries mix to themselves bitwise, and with row[o] <= 1/2 and
    x > 0 the result stays within a few ulps.  An entry is +inf where a
    channel of positive probability has +inf; the formula gives NaN where
    that channel is b, and row[o] = 0 would weigh an infinite x[o] as NaN.
    """
    b = int(row[1] > row[0])
    o = 1 - b
    if row[o] == 0:
        return x[..., b]
    with np.errstate(invalid="ignore"):
        mixed = x[..., b] + row[o] * (x[..., o] - x[..., b])
    return np.where(np.isnan(mixed), np.inf, mixed)


def _stage(chain: QuantizedChain, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One multiplicative Bellman stage: (idle, transmit) exp-values from g.

    g holds the exp-values with one stage fewer to go, shaped (..., n, 2)
    over any leading policy axes; both results have its shape.  A lost
    attempt (bad channel) pays lam on top of the idle cost and moves like
    idle; a delivered one resets the error.  The expectations gather g at
    each noise atom's snapped state, so no stage forms the chain's matrices.
    A value past the float range is +inf.
    """
    e0, e1 = _stage_costs(chain)
    with np.errstate(over="ignore"):
        drift = _expect(g, chain.drift_to, chain.noise_probs)  # E[g(next) | i, no delivery]
        reset = _expect(g, chain.reset_to, chain.noise_probs)  # E[g(next) | delivery]
        idle = np.empty_like(drift)
        for c in (0, 1):
            idle[..., c] = _mix(drift, chain.channel[c])
        del drift
        transmit = np.empty_like(idle)
        np.multiply(e1[:, 0], idle[..., 0], out=transmit[..., 0])
        np.multiply(e1[:, 1], _mix(reset, chain.channel[1])[..., None], out=transmit[..., 1])
        idle *= e0
    return idle, transmit


def _evaluate(chain: QuantizedChain, actions: np.ndarray) -> np.ndarray:
    """Exp-values (P, n, 2) from every start of P policies, in one pass.

    actions[p, j, i, c] is policy p's action with j stages to go (row 0 unused).
    """
    values = np.ones((len(actions), chain.n_states, 2))
    for j in range(1, chain.params.horizon + 1):
        # Update in place and free transmit before the next stage: every
        # (P, n, 2) table alive at once adds to the peak memory.
        values, transmit = _stage(chain, values)
        np.copyto(values, transmit, where=actions[:, j] == 1)
        del transmit
    return values


def exact_policy_cost(chain: QuantizedChain, policy, delta0, c0: int) -> float:
    """E[exp(gamma * sum of the T stage costs)] under the chain's law.

    The policy is a decision function (delta_values, c, stages_to_go);
    delta0 snaps to the nearest chain state.  Computed by _evaluate, an
    exact multiplicative DP, bit-reproducible for a fixed platform.
    """
    T = chain.params.horizon
    n = chain.n_states
    actions = np.zeros((1, T + 1, n, 2), dtype=np.int8)
    for j in range(1, T + 1):
        for c in (0, 1):
            actions[0, j, :, c] = policy(chain.delta_states, np.full(n, c, dtype=int), j)
    return float(_evaluate(chain, actions)[0, chain.state_index(delta0), int(c0)])


def _backward_induction(chain: QuantizedChain) -> tuple[np.ndarray, np.ndarray]:
    """Optimal exp-values v[j] (n,2) and argmin actions (ties idle)."""
    T = chain.params.horizon
    n = chain.n_states
    v = np.ones((T + 1, n, 2))
    u = np.zeros((T + 1, n, 2), dtype=np.int8)
    for j in range(1, T + 1):
        idle, transmit = _stage(chain, v[j - 1])
        take = transmit < idle
        v[j] = np.where(take, transmit, idle)
        u[j] = take
    return v, u


def _threshold_cuts(chain: QuantizedChain) -> np.ndarray:
    """Cut options per (stage, c): every ladder magnitude, then never transmit.
    quantize mirrors the ladder's non-negative half, which is therefore its
    distinct magnitudes in order (np.unique would also import numpy.ma)."""
    return np.append(chain.delta_states[chain.n_states // 2 :], np.inf)


def enumeration_size(n_states: int, horizon: int) -> tuple[int, int]:
    """(base, exponent) such that brute_force_optimal walks base**exponent
    policies on a quantize(..., n_states, ...) chain: a cut at each of the
    (n_states + 1) // 2 magnitudes or none, per stage and channel."""
    return (n_states + 1) // 2 + 1, 2 * horizon


def _check_budget(n_delta: int, horizon: int) -> int:
    """Number of policies brute_force_optimal walks on an n_delta-state chain
    of horizon stages, checked before any chain is built: quantize's
    ValueError for a bad n_delta, EnumerationBudgetError past ENUM_BUDGET."""
    _check_n_delta(n_delta)
    base, exponent = enumeration_size(n_delta, horizon)
    if base**exponent <= ENUM_BUDGET:
        return base**exponent
    # the largest base that fits (an overflow needs exponent >= 2, so the
    # scan ends); an n-state chain has base (n + 1) // 2 + 1, so base 3 is n = 3
    fits = 1
    while (fits + 1) ** exponent <= ENUM_BUDGET:
        fits += 1
    best = 2 * fits - 3
    hint = f"the largest n_delta that fits is {best}" if best >= 3 else "no odd n_delta >= 3 fits"
    need = f"{base}**{exponent} policies (> {ENUM_BUDGET})"
    raise EnumerationBudgetError(f"requested chain (n_delta={n_delta}) needs {need}; {hint}")


def _stage_actions(chain: QuantizedChain) -> np.ndarray:
    """Per-stage action tables (A, n, 2) of the enumerated family: every
    even magnitude-threshold table (one cut per channel, A = k**2 cut
    pairs).  The family is the product of this set over wall stages."""
    cuts = _threshold_cuts(chain)
    k = len(cuts)
    codes = np.arange(k * k)
    pair = cuts[np.stack([codes % k, codes // k], axis=1)]  # (k**2, 2) over c
    return np.abs(chain.delta_states)[None, :, None] >= pair[:, None, :]


def _enumerated_minimum(chain: QuantizedChain) -> np.ndarray:
    """Elementwise minimum exp-value (n, 2) over every policy that takes
    each wall stage's table from _stage_actions.

    A backward pass holds the A**j distinct tails with j stages to go, each
    computed by the same _stage on the same input as in _evaluate, so every
    policy's value is bitwise _evaluate's.  The first wall stage is not
    expanded: for a fixed table each entry takes transmit or idle whatever
    the tail, so the minimum over tails is taken first; and as the cuts
    include 0 (every entry transmits) and +inf (none does), the minimum
    over its A tables is bitwise the elementwise min of transmit and idle,
    with no (A, n, 2) table built.
    """
    T = chain.params.horizon
    tails = np.ones((1, chain.n_states, 2))
    if T == 0:  # the one empty policy
        return tails[0]
    actions = _stage_actions(chain) if T >= 2 else None
    for _ in range(T - 1):
        idle, transmit = _stage(chain, tails)
        tails = np.where(actions[:, None], transmit, idle).reshape(-1, chain.n_states, 2)
    idle, transmit = _stage(chain, tails)
    return np.minimum(transmit.min(axis=0), idle.min(axis=0))


def chain_policy(u_table: np.ndarray, chain: QuantizedChain):
    """Wrap a (T+1, n, 2) stages-to-go action table as a decision function."""

    def rule(delta, c, t: int):
        idx = _snap(np.asarray(delta, dtype=float), chain.delta_states)
        out = u_table[t, idx, np.asarray(c)]
        return out if np.ndim(out) else int(out)

    return rule


def _rel_gap(ref: np.ndarray, x: np.ndarray) -> float:
    """max |x - ref| / |ref|, with equal entries (+inf included) at 0; NaN
    where an entry is +inf on one side only."""
    with np.errstate(invalid="ignore"):
        rel = np.abs(x - ref) / np.abs(ref)
    rel[x == ref] = 0.0
    return float(np.max(rel))


@dataclass(frozen=True)
class BruteForceResult:
    """Certified optimum: DP tables plus the enumeration cross-check.

    policy[j][i][c] is the argmin action with j stages to go; value[i][c]
    the optimal exp-cost from each start; enum_value the elementwise
    minimum over every even magnitude-threshold policy (equal to value
    within 1e-12 relative, or brute_force_optimal would have raised), and
    n_enumerated their number.
    """

    policy: np.ndarray
    value: np.ndarray
    enum_value: np.ndarray
    n_enumerated: int


def brute_force_optimal(chain: QuantizedChain, mode: str = "threshold") -> BruteForceResult:
    """Enumerate the even magnitude-threshold policies, run backward
    induction, insist the minima agree.

    Agreement certifies that an optimal policy of the chain is an even
    threshold on |delta| per stage and channel, the paper's structural
    result.  The enumeration evaluates every policy of the family, each
    tail of stages once for all the policies that share it, and gives each
    policy bitwise the value exact_policy_cost would.  mode names the
    family; 'threshold' is the only one.
    """
    if mode != "threshold":
        raise ValueError(f"unknown enumeration mode {mode!r}: the only family is 'threshold'")
    T = chain.params.horizon
    n_enumerated = _check_budget(chain.n_states, T)
    enum_value = _enumerated_minimum(chain)
    v_dp, u_dp = _backward_induction(chain)
    gap = _rel_gap(v_dp[T], enum_value)
    if not gap <= 1e-12:
        raise OracleMismatchError(
            f"enumeration and backward induction disagree: rel gap {gap:.3e}"
        )
    return BruteForceResult(
        policy=u_dp, value=v_dp[T], enum_value=enum_value, n_enumerated=n_enumerated
    )


def certify(
    chain: QuantizedChain, result: BruteForceResult, fine: QuantizedChain, w0: np.ndarray
) -> list[tuple[str, bool, str]]:
    """The oracle report's rows (check, pass, detail), in order.

    result is brute_force_optimal's on chain, fine the refinement of chain,
    and w0 the solver's log V_T(0, c) for c = 0, 1, which the log-value of
    each chain at its centre state is compared with.  A NaN gap (+inf on one
    side only) fails, as any comparison with NaN does.
    """
    u, mid = result.policy, chain.n_states // 2
    gap = _rel_gap(result.value, result.enum_value)
    # the certified table evaluated from every start in one pass
    eval_gap = _rel_gap(result.value, _evaluate(chain, u[None])[0])
    n_bad = int(u[:, :, 0].sum())
    # with evenness checked, an up-set in |delta| is non-decreasing actions
    # along the non-negative half of the ladder
    upset_ok = bool(np.all(np.diff(u[1:, mid:, :].astype(int), axis=1) >= 0))
    disc_coarse = float(np.max(np.abs(np.log(result.value[mid]) - w0)))
    fine_value = _backward_induction(fine)[0][chain.params.horizon]
    disc_fine = float(np.max(np.abs(np.log(fine_value[fine.n_states // 2]) - w0)))
    # a discrepancy within rounding counts as none: at T = 1 the solver and
    # both chains are exact, and only their rounding errors would be compared
    noise = 4.0 * np.spacing(max(1.0, float(np.max(np.abs(w0)))))
    kept_coarse, kept_fine = (d if d >= noise else 0.0 for d in (disc_coarse, disc_fine))
    return [
        ("enumeration_matches_backward_induction", gap <= 1e-12, f"rel_gap={gap:.3e}"),
        ("exact_policy_cost_matches_certified_optimum", eval_gap <= 1e-12, f"rel_gap={eval_gap:.3e}"),
        ("bad_channel_column_all_idle", n_bad == 0, f"transmit_count={n_bad}"),
        ("optimal_policy_even", bool(np.array_equal(u, u[:, ::-1, :])), "u(delta)=u(-delta)"),
        ("optimal_policy_threshold_structure", upset_ok, "up-set in |delta|"),
        (
            "refinement_decreases_solver_discrepancy",
            kept_fine <= kept_coarse,
            f"coarse={disc_coarse:.3e} fine={disc_fine:.3e}",
        ),
    ]
