"""Closed-loop dynamics and stage costs of the remote-estimation system.

A scalar source x(t+1) = a*x(t) + w(t) is watched by a sensor that may pay
lambda per attempt to push its measurement through a two-state Markov
(Gilbert-Elliott) channel: state 1 delivers, state 0 drops.  The remote
estimator keeps x_hat; the scheduling-relevant state is the innovation-style
error delta = x - a*x_hat_prev together with the channel state c.

Everything here is a pure function; all randomness lives in callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "SimTrace",
    "step_source",
    "step_channel",
    "update_estimate",
    "step_error",
    "stage_cost",
]


@dataclass(frozen=True)
class ModelParams:
    """Problem constants.

    a        source gain (any finite real)
    sigma2   process-noise variance, > 0
    lam      per-transmission energy price, > 0
    gamma    risk-sensitivity parameter, > 0
    horizon  number of costed stages T, >= 0 (decisions at wall stages 0..T-1)
    p01      P(channel good next | bad now)
    p10      P(channel bad next | good now)
    """

    a: float
    sigma2: float
    lam: float
    gamma: float
    horizon: int
    p01: float
    p10: float

    def __post_init__(self) -> None:
        for name in ("a", "sigma2", "lam", "gamma"):  # p01, p10: range-checked below
            value = getattr(self, name)
            if not math.isfinite(value):
                label = "lambda" if name == "lam" else name
                raise ValueError(f"{label} must be finite, got {value}")
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")
        if not self.lam > 0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not isinstance(self.horizon, (int, np.integer)) or self.horizon < 0:
            raise ValueError(f"horizon must be an integer >= 0, got {self.horizon}")
        for name in ("p01", "p10"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.sigma2))

    def channel_matrix(self) -> np.ndarray:
        """Row-stochastic 2x2 matrix P[c][c_next]."""
        return np.array(
            [[1.0 - self.p01, self.p01], [self.p10, 1.0 - self.p10]], dtype=float
        )

    def stationary_good_prob(self) -> float:
        """Long-run fraction of time the channel spends in state 1.

        For the degenerate frozen chain (p01 = p10 = 0) there is no unique
        stationary law; 1/2 is returned as the documented convention.
        """
        s = self.p01 + self.p10
        if s == 0.0:
            return 0.5
        return self.p01 / s


@dataclass
class SimTrace:
    """One closed-loop rollout; row t covers wall stage t = 0..T-1.

    stage_cost[t] == d(delta[t], c[t], u[t]) by construction, and delta
    follows the error recursion for the realized noises.
    """

    t: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    delta: np.ndarray
    c: np.ndarray
    u: np.ndarray
    stage_cost: np.ndarray
    seed: int


def step_source(x, w, params: ModelParams):
    """x(t+1) = a*x(t) + w(t)."""
    return params.a * x + w


def _check_uniforms(draw: np.ndarray) -> None:
    # NaN propagates through min/max and fails both comparisons; initial=0.0
    # lets an empty batch through.
    if not (draw.min(initial=0.0) >= 0.0 and draw.max(initial=0.0) < 1.0):
        raise ValueError("uniform_draw must lie in [0, 1)")


def _channel_rule(draw, params: ModelParams):
    """The transition rule as two bool arrays (from_bad, flip): the next
    state is from_bad ^ (c & flip).  from_bad (draw < p01) is the next state
    from c=0, and flip marks the draws whose next state from c=1
    (draw >= p10) differs from it."""
    from_bad = draw < params.p01
    return from_bad, (draw >= params.p10) ^ from_bad


def step_channel(c, uniform_draw, params: ModelParams):
    """Advance the two-state channel using one uniform draw in [0, 1).

    From c=0 the chain moves to 1 iff draw < p01; from c=1 it moves to 0 iff
    draw < p10.  Draws that are NaN or outside [0, 1) raise ValueError.  The
    result is an integer array (never bool: callers index tables with it),
    or a Python int for scalar input.
    """
    draw = np.asarray(uniform_draw)
    _check_uniforms(draw)
    from_bad, flip = _channel_rule(draw, params)
    out = (from_bad ^ ((np.asarray(c) == 1) & flip)).astype(np.int_)
    return out if out.ndim else int(out)


def _channel_path(c0, uniform_draws, params: ModelParams) -> np.ndarray:
    """The channel states c(0..T-1) of len(c0) rollouts, as a stage-major
    (T, len(c0)) int8 array: row 0 is c0 (0 or 1), and row t+1 is
    step_channel(row t, uniform_draws[t], params).

    uniform_draws is (T, len(c0)) in any memory layout: it is checked and
    compared whole, and only the two bool results are made stage-major.
    Every draw is checked, the last row's too, although the c(T) it steps to
    is not kept.
    """
    _check_uniforms(uniform_draws)
    from_bad, flip = map(np.ascontiguousarray, _channel_rule(uniform_draws, params))
    path = np.empty(uniform_draws.shape, dtype=bool)
    path[:1] = c0
    for t in range(1, len(path)):
        np.bitwise_and(path[t - 1], flip[t - 1], out=path[t])
        path[t] ^= from_bad[t - 1]
    return path.view(np.int8)


def update_estimate(x_hat_prev, x, u, c, params: ModelParams):
    """x_hat(t) = x(t) on delivery (u*c = 1), else a*x_hat(t-1)."""
    uc = np.asarray(u) * np.asarray(c)
    return np.where(uc == 1, x, params.a * np.asarray(x_hat_prev))


def step_error(delta, w, u, c, params: ModelParams):
    """delta(t+1) = w(t) on delivery, else a*delta(t) + w(t)."""
    uc = np.asarray(u) * np.asarray(c)
    return np.where(uc == 1, 0.0, params.a * np.asarray(delta)) + w


def stage_cost(delta, c, u, params: ModelParams):
    """d(delta, c, u) = lambda*u + (1 - u*c)*delta**2."""
    u = np.asarray(u)
    uc = u * np.asarray(c)
    return params.lam * u + (1 - uc) * np.square(delta)

