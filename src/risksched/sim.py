"""Monte Carlo evaluation of scheduling policies on the continuous model.

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

import csv
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
    "write_trace_csv",
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


def _draw_c0(params: ModelParams, u01, c0):
    if c0 is not None:
        return np.broadcast_to(np.int8(c0), np.shape(u01)).copy() if np.ndim(u01) else int(c0)
    good = u01 < params.stationary_good_prob()
    return good.astype(np.int8) if np.ndim(u01) else int(good)


def rollout(
    params: ModelParams,
    policy,
    seed: int,
    delta0: float = 0.0,
    c0: int | None = None,
    noise: np.ndarray | None = None,
) -> SimTrace:
    """One closed-loop trajectory; row t covers wall stage t = 0..T-1.

    Draw order per trace: x(0), the c(0) uniform (consumed even when c0 is
    pinned), then per stage one noise normal and one channel uniform.  The
    estimator is initialized so that delta(0) = delta0 (for a = 0 this
    forces x(0) = delta0 instead).  `noise` substitutes the noise sequence
    after the draws are consumed — a test hook, not a sampling feature.
    """
    T = params.horizon
    g = _generator(seed, 0)
    x = float(g.normal(0.0, 1.0))
    c = _draw_c0(params, float(g.random()), c0)
    w_seq = g.normal(0.0, params.sigma, size=T)
    u_chan = g.random(size=T)
    if noise is not None:
        w_seq = np.asarray(noise, dtype=float)
        if w_seq.shape != (T,):
            raise ValueError(f"noise must have shape ({T},)")
    if params.a != 0.0:
        x_hat_prev = (x - delta0) / params.a
    else:
        x = float(delta0)
        x_hat_prev = 0.0

    cols = {k: np.zeros(T) for k in ("x", "x_hat", "delta", "cost")}
    c_col = np.zeros(T, dtype=np.int8)
    u_col = np.zeros(T, dtype=np.int8)
    delta = float(delta0)
    for t in range(T):
        u = int(policy(delta, c, T - t))
        x_hat = float(update_estimate(x_hat_prev, x, u, c, params))
        cols["x"][t] = x
        cols["x_hat"][t] = x_hat
        cols["delta"][t] = delta
        cols["cost"][t] = stage_cost(delta, c, u, params)
        c_col[t] = c
        u_col[t] = u
        w = float(w_seq[t])
        delta = float(step_error(delta, w, u, c, params))
        x = float(step_source(x, w, params))
        c = int(step_channel(c, float(u_chan[t]), params))
        x_hat_prev = x_hat
    return SimTrace(
        t=np.arange(T),
        x=cols["x"],
        x_hat=cols["x_hat"],
        delta=cols["delta"],
        c=c_col,
        u=u_col,
        stage_cost=cols["cost"],
        seed=seed,
    )


def _simulate_chunk(
    params: ModelParams, policy, m: int, g: np.random.Generator, delta0: float, c0
) -> np.ndarray:
    """Total additive cost of m independent rollouts (error/channel layer)."""
    T = params.horizon
    c = _draw_c0(params, g.random(m), c0)
    w = g.normal(0.0, params.sigma, size=(m, T))
    u_chan = g.random(size=(m, T))
    delta = np.full(m, float(delta0))
    total = np.zeros(m)
    for t in range(T):
        u = np.asarray(policy(delta, c, T - t), dtype=np.int8)
        total += stage_cost(delta, c, u, params)
        delta = step_error(delta, w[:, t], u, c, params)
        c = step_channel(c, u_chan[:, t], params)
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
    - tail_share: the share of that mean carried by the top 0.1% of samples
      (a heavy-tail warning fires, and tail_ok is False, above one half);
    - mean_cost, var_cost: the mean and sample variance of S, merged across
      chunks with Chan's pairwise update.
    """
    if n_rollouts < 1:
        raise ValueError("n_rollouts must be >= 1")
    gamma = params.gamma
    k_top = max(1, int(TAIL_QUANTILE * n_rollouts))
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
    tail_ok = tail_share <= TAIL_SHARE_LIMIT
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


def write_trace_csv(trace: SimTrace, path) -> None:
    """One row per stage: t,x,x_hat,delta,c,u,cost (seed in a comment)."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed = {trace.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "x_hat", "delta", "c", "u", "cost"])
        for i in range(len(trace.t)):
            writer.writerow(
                [
                    int(trace.t[i]),
                    repr(float(trace.x[i])),
                    repr(float(trace.x_hat[i])),
                    repr(float(trace.delta[i])),
                    int(trace.c[i]),
                    int(trace.u[i]),
                    repr(float(trace.stage_cost[i])),
                ]
            )
