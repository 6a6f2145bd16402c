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

Chunks run on a pool of one thread per CPU the process may use (a single
chunk runs on the calling thread).  Each chunk reduces its own totals to a
few figures, and the calling thread merges them in chunk order, so every
result is bit-identical whatever the number of workers.  A chunk draws its
noise a step block of STEP_ROWS rollouts at a time, as it comes to the
block: one Philox fill of the block's normals, then one of its channel
uniforms, both into one reused buffer, the normals scaled from it into one
reused stage-major noise buffer.  So each extra worker holds one step
block's fill, noise, channel path and stage buffers, and the chunk's totals
(a 7.5 MiB tracemalloc peak at T = 20).

A step block is stepped stage-major: its normals are kept as a (T, rows)
array, so stage t reads one contiguous row.  The channel's next state does
not depend on the sensor's action, so the block's whole channel path, an
int8 (T, rows) array, is computed from its uniforms before the first
decision, and every uniform is checked once, there.  Each stage then makes
one decision and one fused pass of in-place ufuncs, which forms the
delivery mask u*c once and writes both the stage cost and the next error
into the block's buffers.  model.stage_cost and model.step_error state the
same arithmetic, bit for bit, and the tests hold the loop to them.  A chunk
whose totals are not all finite (the error overflowed a float) raises
FloatingPointError.  Other values past the float range are inf or NaN
(x_hat at a subnormal gain, var_cost where the spread of S leaves it), and
rollout and _chunk_figures tell numpy not to warn by an np.errstate
decorator, _chunk_figures as pool threads do not see the caller's.  The
merge adds Python floats and calls _logsumexp, which holds its own rule.

Decision functions follow the package convention (delta, c, stages_to_go),
must accept equal-length arrays for delta and c, and return 0 or 1 per row.
They are called from several threads at once, so they must be safe to call
concurrently; the package's own are pure.
"""

from __future__ import annotations

import math
import os
import warnings
from functools import partial
from typing import NamedTuple

import numpy as np

from .model import ModelParams, SimTrace, _channel_path, step_source, update_estimate
from .solver import _logsumexp

__all__ = [
    "CHUNK_SIZE",
    "RiskEstimate",
    "rollout",
    "estimate_risk_objective",
]

CHUNK_SIZE = 1 << 16
# Rollouts stepped together inside a chunk, each drawn by one Philox fill of
# normals and one of channel uniforms.  A stage makes the same dozen numpy
# calls at any block size, so larger blocks spend less of it in Python,
# holding the GIL the other workers wait for, but hold a larger fill, noise
# buffer, channel path and stage buffers.  `bench/run.py --workload
# mc-rollouts` on a shared 2-vCPU x86_64 VM (30 s runs, seeds 304-306, the
# four builds in rotation), when a chunk drew all its normals in fills of
# 4096 rows before its first uniform: median wall_s and peak_rss_mb; then
# the range of ru_maxrss of its `simulate` in 4 fresh processes each.
#   np.where stages, 4096 rows  1.495 s  62.56 MB  62.33-62.61 MB
#   STEP_ROWS = 4096            1.391 s  63.13 MB  62.48-62.86 MB
#   STEP_ROWS = 8192            1.315 s  63.09 MB  62.70-62.87 MB
#   STEP_ROWS = 16384           1.207 s  63.65 MB  63.43-64.75 MB
STEP_ROWS = 1 << 14

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
    """Yield (channel path, noises w) of m rollouts in step blocks of at
    most STEP_ROWS rollouts, both stage-major (T, rows): the path is int8,
    row t holding c(t).

    Stream order: the m c(0) uniforms (consumed even when c0 is pinned),
    then, block by block, one (rows, T) fill of normals and one of channel
    uniforms.  Both fills go row-major into one reused buffer: the normals
    are scaled from it into one reused stage-major noise buffer, and the
    uniforms are stepped from it into the block's channel path (and checked
    there) before the block is yielded.  w is a view of that noise buffer,
    which the next block overwrites: step a block before taking the next.
    """
    T = params.horizon
    good = g.random(m) < params.stationary_good_prob()
    c = np.full(m, c0, dtype=np.int8) if c0 is not None else good.astype(np.int8)
    fill = np.empty((min(STEP_ROWS, m), T))  # one row-major fill, reused
    noise = np.empty((T, len(fill)))  # stage-major, reused
    for s in range(0, m, STEP_ROWS):
        rows, w = fill[: m - s], noise[:, : m - s]  # the last block may be shorter
        g.standard_normal(out=rows)
        np.multiply(rows.T, params.sigma, out=w)
        w += 0.0  # g.normal(0.0, sigma) is 0.0 + sigma * z, which maps a -0.0 draw to 0.0
        g.random(out=rows)
        yield _channel_path(c[s : s + len(rows)], rows.T, params), w


def _closed_loop(params: ModelParams, policy, delta0: float, path, w):
    """Step the rollouts of one step block through the T wall stages and
    yield (delta, c, u, cost) at each: the sensor sees (delta, c), decides
    u and pays cost = stage_cost(delta, c, u), then delta steps to
    step_error(delta, w[t], u, c).  path (the channel states, int8) and w
    are stage-major (T, rows), so c is path[t].

    Each stage is one pass of in-place ufuncs over the block's buffers, and
    the delivery mask u*c is formed once for the cost and the error step.
    delta and cost are overwritten by the next stage.
    """
    T, rows = path.shape
    delta, cost, scratch = np.full(rows, float(delta0)), np.empty(rows), np.empty(rows)
    bits, mask = delta.view(np.int64), scratch.view(np.int64)
    keep = np.empty(rows, dtype=np.int8)  # 1 - u*c: 0 where an attempt is delivered
    for t in range(T):
        c = path[t]
        u = np.asarray(policy(delta, c, T - t), dtype=np.int8)
        np.multiply(u, c, out=keep)
        np.subtract(1, keep, out=keep)
        # lam*u + (1 - u*c)*delta**2, NaN where a delivered delta**2 is inf
        np.square(delta, out=cost)
        np.multiply(cost, keep, out=cost)
        np.add(np.multiply(u, params.lam, out=scratch), cost, out=cost)
        yield delta, c, u, cost
        # where(u*c == 1, 0.0, a*delta) + w[t]: delivery clears every bit to
        # +0.0, as np.where sets it, so an overflowed delta resets to w[t]
        np.multiply(delta, params.a, out=delta)
        np.bitwise_and(bits, np.negative(keep, out=mask), out=bits)
        np.add(delta, w[t], out=delta)


@np.errstate(all="ignore")
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
    path, w = next(_draws(params, g, 1, c0))
    if noise is not None:
        w = np.asarray(noise, dtype=float)[:, np.newaxis]
        if w.shape != (T, 1):
            raise ValueError(f"noise must have shape ({T},)")
    if params.a != 0.0:
        x_hat = (x - delta0) / params.a
    else:
        x, x_hat = np.full(1, float(delta0)), np.zeros(1)

    rows = np.zeros((6, T))  # x, x_hat, delta, c, u, stage cost
    for t, (delta, c, u, cost) in enumerate(_closed_loop(params, policy, delta0, path, w)):
        x_hat = update_estimate(x_hat, x, u, c, params)
        rows[:, t] = x[0], x_hat[0], delta[0], c[0], u[0], cost[0]
        x = step_source(x, w[t], params)
    x, x_hat, delta, c, u, cost = rows
    c, u = c.astype(np.int8), u.astype(np.int8)
    return SimTrace(t=np.arange(T), x=x, x_hat=x_hat, delta=delta, c=c, u=u, stage_cost=cost, seed=seed)


def _simulate_chunk(
    params: ModelParams, policy, m: int, g: np.random.Generator, delta0: float, c0
) -> np.ndarray:
    """Total additive cost of m independent rollouts of the closed loop."""
    total = np.zeros(m)
    start = 0
    for path, w in _draws(params, g, m, c0):
        block = total[start : start + w.shape[1]]
        for *_, cost in _closed_loop(params, policy, delta0, path, w):
            block += cost
        start += w.shape[1]
    return total


@np.errstate(all="ignore")
def _chunk_figures(
    params: ModelParams, policy, seed: int, delta0: float, c0, k_top: int, chunk: int, m: int
):
    """(m, mean, M2, log-sum-exps of gamma*S and 2*gamma*S, top k_top of
    gamma*S, unordered) of the totals S of one chunk.  Raises
    FloatingPointError if a total is not finite."""
    s = _simulate_chunk(params, policy, m, _generator(seed, chunk), delta0, c0)
    if not np.isfinite(s).all():
        raise FloatingPointError(f"a rollout's total cost overflows a float (chunk {chunk})")
    mean = float(s.mean())
    m2 = float(np.square(s - mean).sum())
    gs = params.gamma * s
    del s
    # copied, so the top k does not keep the whole partitioned chunk alive
    top = gs if m <= k_top else np.partition(gs, m - k_top)[-k_top:].copy()
    return m, mean, m2, _logsumexp(gs, axis=0), _logsumexp(2.0 * gs, axis=0), top


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chunks(figures, sizes: list[int]):
    """figures(chunk, m) of every chunk, yielded in chunk order.  With one
    usable CPU or one chunk they run on the calling thread; otherwise on a
    pool of min(usable CPUs, chunks) threads, which is joined before an
    exception in any chunk propagates."""
    workers = min(_usable_cpus(), len(sizes))
    if workers == 1:
        yield from map(figures, range(len(sizes)), sizes)
        return
    # imported here: concurrent.futures pulls in logging, which a one-chunk
    # run and every other command would pay for at import
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        yield from pool.map(figures, range(len(sizes)), sizes)


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
    n_tail = int(TAIL_QUANTILE * n_rollouts)
    k_top = max(1, n_tail)
    lse1, lse2 = [], []
    top = np.full(0, -np.inf)  # the k_top largest gamma*S so far, unordered
    n_acc, mean_acc, m2_acc = 0, 0.0, 0.0
    figures = partial(_chunk_figures, params, policy, seed, delta0, c0, k_top)
    for m, mean_c, m2_c, lse1_c, lse2_c, top_c in _map_chunks(figures, _chunk_sizes(n_rollouts)):
        lse1.append(lse1_c)
        lse2.append(lse2_c)
        top = np.concatenate([top, top_c])
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

