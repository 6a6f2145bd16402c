"""Monte Carlo evaluation of scheduling policies on the continuous model.

The sensor closes one loop: it sees (delta(t), c(t)), decides u(t), and delta
and c step forward.  _closed_loop is that loop, run on a batch of rollouts;
rollout records one of them as a trace (adding the source x and estimate
x_hat), and the estimator sums the stage costs of many.

One estimator, estimate_risk_objective, simulates every rollout once and
reads five figures from the total costs S: the log risk objective
log E[exp(gamma * S)], its standard error, the tail share of the top 0.1%
of samples, and the mean and variance of S.  exp(gamma * S) spans hundreds
of orders of magnitude, so the risk objective is aggregated purely in the
log domain: per-chunk log-sum-exp partials are merged by one final
log-sum-exp, and the linear-domain mean is never formed.  Noise comes from
counter-based Philox streams keyed by (seed, chunk index), so results are
bit-identical for a given seed and independent of how work is chunked
across the fixed chunk size.

Decision functions follow the package convention (delta, c, stages_to_go)
and must accept equal-length arrays for delta and c.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .model import ModelParams, SimTrace, stage_cost, step_channel, step_error, step_source, update_estimate
from .solver import _logsumexp

__all__ = [
    "CHUNK_SIZE",
    "RiskEstimate",
    "rollout",
    "estimate_risk_objective",
]

CHUNK_SIZE = 1 << 16

# Share of the estimated mean the top 0.1% of samples may carry before the
# estimate is flagged as tail-dominated.
TAIL_SHARE_LIMIT = 0.5
TAIL_QUANTILE = 1e-3


class RiskEstimate(NamedTuple):
    log_estimate: float
    se_log: float
    n: int
    tail_share: float
    tail_ok: bool
    mean_cost: float
    var_cost: float


def _generator(seed: int, chunk: int) -> np.random.Generator:
    key = np.array([seed, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(params: ModelParams, g: np.random.Generator, m: int, c0):
    """c(0), noises w and channel uniforms u_chan of m rollouts, drawn in this
    order; the c(0) uniforms are consumed even when c0 is pinned."""
    good = g.random(m) < params.stationary_good_prob()
    c = np.full(m, c0, dtype=np.int8) if c0 is not None else good.astype(np.int8)
    T = params.horizon
    return c, g.normal(0.0, params.sigma, size=(m, T)), g.random(size=(m, T))


def _closed_loop(params: ModelParams, policy, delta0: float, c, w, u_chan):
    """Step len(c) rollouts through the T wall stages and yield (delta, c, u)
    at each: the sensor sees (delta, c) and decides u, then delta steps with
    the noise w[:, t] and c with the channel uniform u_chan[:, t]."""
    T = params.horizon
    delta = np.full(len(c), float(delta0))
    for t in range(T):
        u = np.asarray(policy(delta, c, T - t), dtype=np.int8)
        yield delta, c, u
        delta = step_error(delta, w[:, t], u, c, params)
        c = step_channel(c, u_chan[:, t], params)


def rollout(
    params: ModelParams,
    policy,
    seed: int,
    delta0: float = 0.0,
    c0: int | None = None,
    noise: np.ndarray | None = None,
) -> SimTrace:
    """One closed-loop trajectory; row t covers wall stage t = 0..T-1.

    Draw order per trace: x(0), then the draws of a one-rollout chunk (the
    c(0) uniform, T noise normals, T channel uniforms).  The estimator is
    initialized so that delta(0) = delta0 (for a = 0 this forces x(0) =
    delta0 instead).  `noise` substitutes the noise sequence after the draws
    are consumed — a test hook, not a sampling feature.
    """
    T = params.horizon
    g = _generator(seed, 0)
    x = g.normal(0.0, 1.0, size=1)
    c, w, u_chan = _draws(params, g, 1, c0)
    if noise is not None:
        w = np.asarray(noise, dtype=float)[np.newaxis]
        if w.shape != (1, T):
            raise ValueError(f"noise must have shape ({T},)")
    if params.a != 0.0:
        x_hat = (x - delta0) / params.a
    else:
        x, x_hat = np.full(1, float(delta0)), np.zeros(1)

    rows = np.zeros((5, T))  # x, x_hat, delta, c, u
    for t, (delta, c_t, u) in enumerate(_closed_loop(params, policy, delta0, c, w, u_chan)):
        x_hat = update_estimate(x_hat, x, u, c_t, params)
        rows[:, t] = x[0], x_hat[0], delta[0], c_t[0], u[0]
        x = step_source(x, w[:, t], params)
    x, x_hat, delta, c, u = rows
    c, u = c.astype(np.int8), u.astype(np.int8)
    cost = stage_cost(delta, c, u, params)
    return SimTrace(t=np.arange(T), x=x, x_hat=x_hat, delta=delta, c=c, u=u, stage_cost=cost, seed=seed)


def _simulate_chunk(
    params: ModelParams, policy, m: int, g: np.random.Generator, delta0: float, c0
) -> np.ndarray:
    """Total additive cost of m independent rollouts of the closed loop."""
    total = np.zeros(m)
    for delta, c, u in _closed_loop(params, policy, delta0, *_draws(params, g, m, c0)):
        total += stage_cost(delta, c, u, params)
    return total


def _chunk_sizes(n: int) -> list[int]:
    sizes = [CHUNK_SIZE] * (n // CHUNK_SIZE)
    if n % CHUNK_SIZE:
        sizes.append(n % CHUNK_SIZE)
    return sizes


def estimate_risk_objective(
    params: ModelParams,
    policy,
    n_rollouts: int,
    seed: int,
    delta0: float = 0.0,
    c0: int | None = None,
) -> RiskEstimate:
    """Risk objective and moments of the total cost, from one pass of rollouts.

    Each chunk of rollouts is simulated once, and its totals S feed every
    figure:
    - log_estimate: log of the sample mean of exp(gamma * S);
    - se_log: its delta-method standard error sqrt(expm1(L2 - 2*L1) / n),
      where L1, L2 are the log first and second sample moments of
      exp(gamma * S);
    - tail_share: the share of that mean carried by the top 0.1% of samples,
      at least one (a heavy-tail warning fires, and tail_ok is False, above
      one half).  Below 1000 rollouts the top 0.1% is less than one sample,
      so the tail is not judged: tail_share is still the largest sample's
      share, but tail_ok is True and nothing warns;
    - mean_cost, var_cost: the mean and sample variance of S, merged across
      chunks with Chan's pairwise update.
    """
    if n_rollouts < 1:
        raise ValueError("n_rollouts must be >= 1")
    gamma = params.gamma
    n_tail = int(TAIL_QUANTILE * n_rollouts)
    k_top = max(1, n_tail)
    lse1, lse2 = [], []
    top = np.full(0, -np.inf)  # the k_top largest gamma*S so far, unordered
    n_acc, mean_acc, m2_acc = 0, 0.0, 0.0
    for chunk, m in enumerate(_chunk_sizes(n_rollouts)):
        g = _generator(seed, chunk)
        s = _simulate_chunk(params, policy, m, g, delta0, c0)
        mean_c = float(s.mean())
        m2_c = float(np.square(s - mean_c).sum())
        gs = gamma * s
        del s
        lse1.append(_logsumexp(gs, axis=0))
        lse2.append(_logsumexp(2.0 * gs, axis=0))
        top = np.concatenate([top, gs])
        del gs
        if top.size > k_top:
            top = np.partition(top, top.size - k_top)[-k_top:]
        if n_acc == 0:
            n_acc, mean_acc, m2_acc = m, mean_c, m2_c
        else:
            delta = mean_c - mean_acc
            tot = n_acc + m
            m2_acc += m2_c + delta * delta * n_acc * m / tot
            mean_acc += delta * m / tot
            n_acc = tot
    log_n = math.log(n_rollouts)
    lse1_all = float(_logsumexp(np.asarray(lse1), axis=0))
    lse2_all = float(_logsumexp(np.asarray(lse2), axis=0))
    l1 = lse1_all - log_n
    l2 = lse2_all - log_n
    se = math.sqrt(max(math.expm1(l2 - 2.0 * l1), 0.0) / n_rollouts)
    # sorted, so the reduction sums in the same order for any chunking
    tail_share = math.exp(float(_logsumexp(np.sort(top), axis=0)) - lse1_all)
    tail_ok = n_tail == 0 or tail_share <= TAIL_SHARE_LIMIT
    if not tail_ok:
        warnings.warn(
            f"risk estimate is tail-dominated: top {TAIL_QUANTILE:.1%} of samples "
            f"carry {tail_share:.1%} of the mean",
            RuntimeWarning,
            stacklevel=2,
        )
    var = m2_acc / (n_acc - 1) if n_acc > 1 else 0.0
    return RiskEstimate(
        float(l1), float(se), n_rollouts, float(tail_share), tail_ok, mean_acc, var
    )

