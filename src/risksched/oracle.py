"""Exact verification on small quantized instances.

The continuous error is replaced by a finite uniform ladder of states and
the Gaussian noise by a symmetric moment-matched atom set, giving a finite
MDP whose risk-sensitive cost E[exp(gamma * sum d)] is computable exactly.
Three independent routes must then agree: exhaustive policy enumeration,
backward induction, and direct evaluation of the certified policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = [
    "EnumerationBudgetError",
    "OracleMismatchError",
    "QuantizedChain",
    "BruteForceResult",
    "quantize",
    "exact_policy_cost",
    "brute_force_optimal",
    "chain_policy",
    "enumeration_size",
]

# Full enumeration walks 2**(n_states * 2 * stages) policies; threshold
# enumeration walks (n_magnitudes + 1)**(2 * stages).  Either count must
# stay below this before we start.
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
        """M[i, i+] = P(next state i+ | state i, no delivery)."""
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
    lo = np.clip(np.floor((x - states[0]) / h).astype(int), 0, len(states) - 2)
    hi = lo + 1
    d_lo = np.abs(x - states[lo])
    d_hi = np.abs(x - states[hi])
    take_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (np.abs(states[hi]) < np.abs(states[lo])))
    return np.where(take_hi, hi, lo)


def _noise_atoms(sigma: float, noise_points: int) -> tuple[np.ndarray, np.ndarray]:
    # Gaussian-quadrature atoms match N(0, sigma^2) moments up to degree
    # 2*noise_points - 1 (2 points: +-sigma at 1/2; 3: {0, +-sigma*sqrt(3)}
    # at {2/3, 1/6, 1/6}).
    y, wt = np.polynomial.hermite.hermgauss(noise_points)
    y = 0.5 * (y - y[::-1])
    wt = 0.5 * (wt + wt[::-1])
    return np.sqrt(2.0) * sigma * y, wt / wt.sum()


def quantize(
    params: ModelParams,
    n_delta: int,
    noise_points: int,
    delta_q: float | None = None,
) -> QuantizedChain:
    """Uniform Delta ladder on [-delta_q, delta_q] with moment-matched noise."""
    if n_delta < 3 or n_delta % 2 == 0:
        raise ValueError(f"n_delta must be odd and >= 3, got {n_delta}")
    if noise_points not in (2, 3, 5):
        raise ValueError(f"noise_points must be 2, 3 or 5, got {noise_points}")
    if delta_q is None:
        delta_q = 4.0 * params.sigma
    if not 0 < delta_q < np.inf:
        raise ValueError(f"delta_q must be finite and > 0, got {delta_q}")
    states = np.linspace(-delta_q, delta_q, n_delta)
    values, probs = _noise_atoms(params.sigma, noise_points)
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
    """exp-costs exp(gamma*d) for u=0 and u=1, each (n_states, 2)."""
    p = chain.params
    z = np.square(chain.delta_states)
    e0 = np.exp(p.gamma * z)[:, None] * np.ones((1, 2))
    e1 = np.empty_like(e0)
    e1[:, 0] = np.exp(p.gamma * (p.lam + z))
    e1[:, 1] = np.exp(p.gamma * p.lam)
    return e0, e1


def _policy_step(
    chain: QuantizedChain, g: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """One multiplicative DP step: g'[i,c] under action table u[i,c]."""
    drift = chain.drift_matrix()
    reset = chain.reset_vector()
    cont_idle = (drift @ g) @ chain.channel.T  # E[g(next) | i, no delivery]
    cont_reset = chain.channel @ (reset @ g)  # (2,) by current c
    e0, e1 = _stage_costs(chain)
    idle_val = e0 * cont_idle
    trans_val = np.empty_like(idle_val)
    trans_val[:, 0] = e1[:, 0] * cont_idle[:, 0]  # lost attempt: idle kernel
    trans_val[:, 1] = e1[:, 1] * cont_reset[1]
    return np.where(u == 1, trans_val, idle_val)


def exact_policy_cost(chain: QuantizedChain, policy, delta0, c0: int) -> float:
    """E[exp(gamma * sum of the T stage costs)] under the chain's law.

    The policy is a decision function (delta_values, c, stages_to_go);
    delta0 snaps to the nearest chain state.  Computed by an exact
    multiplicative DP over (state, channel) accumulators, bit-reproducible
    for a fixed platform.
    """
    T = chain.params.horizon
    n = chain.n_states
    g = np.ones((n, 2))
    for j in range(1, T + 1):
        u = np.stack(
            [
                np.asarray(policy(chain.delta_states, np.full(n, c, dtype=int), j))
                for c in (0, 1)
            ],
            axis=1,
        )
        g = _policy_step(chain, g, u)
    return float(g[chain.state_index(delta0), int(c0)])


def _backward_induction(chain: QuantizedChain) -> tuple[np.ndarray, np.ndarray]:
    """Optimal exp-values v[j] (n,2) and argmin actions (ties idle)."""
    T = chain.params.horizon
    n = chain.n_states
    drift = chain.drift_matrix()
    reset = chain.reset_vector()
    e0, e1 = _stage_costs(chain)
    v = np.ones((T + 1, n, 2))
    u = np.zeros((T + 1, n, 2), dtype=np.int8)
    for j in range(1, T + 1):
        cont_idle = (drift @ v[j - 1]) @ chain.channel.T
        cont_reset = chain.channel @ (reset @ v[j - 1])
        q0 = e0 * cont_idle
        q1 = e1.copy()
        q1[:, 0] *= cont_idle[:, 0]
        q1[:, 1] *= cont_reset[1]
        take = q1 < q0
        v[j] = np.where(take, q1, q0)
        u[j] = take
    return v, u


def _threshold_cuts(chain: QuantizedChain) -> np.ndarray:
    """Cut options per (stage, c): every ladder magnitude, then never transmit."""
    return np.append(np.unique(np.abs(chain.delta_states)), np.inf)


def enumeration_size(chain: QuantizedChain, mode: str) -> tuple[str, int, int]:
    """(mode, base, exponent) such that brute_force_optimal(chain, mode)
    walks base**exponent policies.

    mode 'auto' resolves to 'full' when that fits ENUM_BUDGET, else to
    'threshold'; the resolved mode is returned.
    """
    T = chain.params.horizon
    full_bits = chain.n_states * 2 * T
    if mode == "auto":
        mode = "full" if 2**full_bits <= ENUM_BUDGET else "threshold"
    if mode == "full":
        return mode, 2, full_bits
    if mode == "threshold":
        return mode, len(_threshold_cuts(chain)), 2 * T
    raise ValueError(f"unknown enumeration mode {mode!r}")


def _enumerate_policies(chain: QuantizedChain, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-policy action tables (P, T, n, 2) and their value at every start.

    mode 'full' sweeps every deterministic Markov policy; 'threshold'
    sweeps every even magnitude-threshold policy (one cut per (stage, c)).
    The caller has checked the count against ENUM_BUDGET.  Returns
    (actions, values) with values shaped (P, n, 2).
    """
    T = chain.params.horizon
    n = chain.n_states
    if mode == "full":
        bits = n * 2 * T
        count = 2**bits
        codes = np.arange(count, dtype=np.int64)
        shifts = np.arange(bits, dtype=np.int64)
        flat = (codes[:, None] >> shifts[None, :]) & 1
        actions = flat.reshape(count, T, n, 2).astype(np.int8)
    else:
        cuts = _threshold_cuts(chain)
        k = len(cuts)
        count = k ** (2 * T)
        codes = np.arange(count, dtype=np.int64)
        choice = np.empty((count, T, 2), dtype=np.int64)
        rem = codes
        for slot in range(2 * T):
            choice[:, slot // 2, slot % 2] = rem % k
            rem = rem // k
        abs_states = np.abs(chain.delta_states)
        actions = (abs_states[None, None, :, None] >= cuts[choice][:, :, None, :]).astype(
            np.int8
        )

    values = np.ones((len(actions), n, 2))
    drift = chain.drift_matrix()
    reset = chain.reset_vector()
    e0, e1 = _stage_costs(chain)
    for j in range(1, T + 1):
        u = actions[:, T - j]  # stage with j stages to go
        cont_idle = np.einsum("ik,pkc,dc->pid", drift, values, chain.channel)
        cont_reset = np.einsum("k,pkc,dc->pd", reset, values, chain.channel)
        idle_val = e0[None] * cont_idle
        trans_val = e1[None].copy() * cont_idle
        trans_val[:, :, 1] = e1[None, :, 1] * cont_reset[:, None, 1]
        values = np.where(u == 1, trans_val, idle_val)
    return actions, values


def chain_policy(u_table: np.ndarray, chain: QuantizedChain):
    """Wrap a (T+1, n, 2) stages-to-go action table as a decision function."""

    def rule(delta, c, t: int):
        idx = _snap(np.asarray(delta, dtype=float), chain.delta_states)
        out = u_table[t, idx, np.asarray(c)]
        return out if np.ndim(out) else int(out)

    return rule


@dataclass(frozen=True)
class BruteForceResult:
    """Certified optimum: DP tables plus the enumeration cross-check.

    policy[j][i][c] is the argmin action with j stages to go; value[i][c]
    the optimal exp-cost from each start; enum_value the elementwise
    minimum over all enumerated policies (equal to value within 1e-12
    relative, or brute_force_optimal would have raised).
    """

    policy: np.ndarray
    value: np.ndarray
    enum_value: np.ndarray
    enum_mode: str
    n_enumerated: int


def brute_force_optimal(chain: QuantizedChain, mode: str = "auto") -> BruteForceResult:
    """Enumerate policies, run backward induction, insist the minima agree.

    mode 'auto' tries the full sweep when it fits the budget and falls back
    to the magnitude-threshold family (the optimum of a symmetric chain
    lies there; the acceptance suite confirms this on instances where the
    full sweep is affordable).
    """
    T = chain.params.horizon
    mode, base, exponent = enumeration_size(chain, mode)
    if base**exponent > ENUM_BUDGET:
        raise EnumerationBudgetError(
            f"{mode} enumeration needs {base}**{exponent} policies (> {ENUM_BUDGET})"
        )
    actions, values = _enumerate_policies(chain, mode)
    enum_value = values.min(axis=0)
    v_dp, u_dp = _backward_induction(chain)
    gap = np.max(np.abs(v_dp[T] - enum_value) / np.abs(v_dp[T]))
    if gap > 1e-12:
        raise OracleMismatchError(
            f"enumeration and backward induction disagree: rel gap {gap:.3e}"
        )
    return BruteForceResult(
        policy=u_dp,
        value=v_dp[T],
        enum_value=enum_value,
        enum_mode=mode,
        n_enumerated=len(actions),
    )
