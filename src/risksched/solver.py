"""Finite-horizon risk-sensitive value iteration in the log domain.

The target quantity is V_T(delta, c) = min over policies of
E[exp(gamma * sum of the T stage costs)], computed by the multiplicative
Bellman recursion V_0 := 1, V_{j+1} = min_u Q_{j+1}(., u).  Index j always
means "stages to go"; wall stage s of a horizon-T episode uses iterate T - s.

Values grow like exp(beta_j * delta^2), so everything is stored as logs and
reduced with log-sum-exp.  The risk-neutral recursion (the gamma -> 0 limit
of W / gamma) runs through the same stage operator on additive values, where
the reductions are plain weighted sums.  Gaussian integrals use Gauss-Hermite
quadrature centered at the kernel mean (default) or a trapezoid rule on the
grid itself (cross-check).  Off-grid values of W = log V are taken by
piecewise-linear interpolation in z = delta^2, which matches the exact
never-transmit shape log K_j + beta_j * delta^2 and hence is exact for that
envelope; beyond delta_max the last two nodes extrapolate linearly in z.
Kernel centers and quadrature abscissae are the same at every stage, so
where each integral reads the table is fixed once per solve, and a stage is
a gather, a lerp and one reduction per kernel branch.  The Hermite stencil
is abscissa-major, (n_nodes, n_centers): each reduction over the 64 terms
then adds whole rows of centers, where a reduction over a short last axis
spent its time on memory layout.  The trapezoid stencil stays center-major,
(n_centers, n_points), as its long rows already reduce along memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = [
    "GridSpec",
    "QuadratureSpec",
    "LogValueTable",
    "PolicyTable",
    "ValueTable",
    "FeasibilityReport",
    "TruncationReport",
    "InfeasibleModelError",
    "check_feasibility",
    "closed_form_never_transmit",
    "auto_delta_max",
    "truncation_report",
    "value_iterate",
    "risk_neutral_value_iterate",
]

RULE_HERMITE = "gauss-hermite-centered"
RULE_TRAPEZOID = "trapezoid-on-grid"


class InfeasibleModelError(ValueError):
    """The exponential-cost expectation diverges at some stage."""

    def __init__(self, stage: int, message: str | None = None):
        self.stage = stage
        super().__init__(message or f"infeasible at stage {stage}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid on [-delta_max, delta_max].

    n_points is odd so 0 is a node; the folded grid is the non-negative
    half, sharing nodes bitwise with the original so fold/unfold
    comparisons carry no interpolation noise.
    """

    delta_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not 0 < self.delta_max < math.inf:
            raise ValueError(f"delta_max must be finite and > 0, got {self.delta_max}")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError(f"n_points must be odd and >= 3, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.delta_max / (self.n_points - 1)

    @property
    def n_folded(self) -> int:
        return (self.n_points + 1) // 2

    def folded_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.delta_max, self.n_folded)

    def nodes(self) -> np.ndarray:
        # Built by mirroring the half grid so symmetry is exact bitwise.
        return self.unfold(self.folded_nodes(), odd=True)

    @staticmethod
    def unfold(a: np.ndarray, odd: bool = False) -> np.ndarray:
        """Mirror an array over the folded nodes (last axis) onto the full grid:
        the value at -delta is the one at delta, negated if `odd`."""
        mirror = a[..., :0:-1]
        return np.concatenate([-mirror if odd else mirror, a], axis=-1)

    def nodes_for(self, space: str) -> np.ndarray:
        _check_space(space)
        return self.nodes() if space == "original" else self.folded_nodes()


@dataclass(frozen=True)
class QuadratureSpec:
    rule: str = RULE_HERMITE
    n_nodes: int = 64

    def __post_init__(self) -> None:
        if self.rule not in (RULE_HERMITE, RULE_TRAPEZOID):
            raise ValueError(f"unknown quadrature rule {self.rule!r}")
        if self.rule == RULE_HERMITE and self.n_nodes < 8:
            raise ValueError("Hermite rule needs n_nodes >= 8")


@dataclass
class LogValueTable:
    """w[j][c][i] = log V_j at node i, channel c, j = 0..T stages to go."""

    w: np.ndarray
    grid: GridSpec
    space: str
    normalized: bool = True

    @property
    def horizon(self) -> int:
        return self.w.shape[0] - 1


@dataclass
class ValueTable:
    """Additive (risk-neutral) analog of LogValueTable."""

    v: np.ndarray
    grid: GridSpec
    space: str


@dataclass
class PolicyTable:
    """u_star[j][c][i]: minimizing action with j stages to go (row 0 idle).

    q_margin holds q_transmit - q_idle at each decision (log values from
    value_iterate, additive ones from risk_neutral_value_iterate) so callers
    can recognize numerical ties; +inf on the degenerate row 0.
    """

    u_star: np.ndarray
    q_margin: np.ndarray
    grid: GridSpec
    space: str

    @property
    def horizon(self) -> int:
        return self.u_star.shape[0] - 1


@dataclass(frozen=True)
class FeasibilityReport:
    """beta-recursion trace; beta[t] is NaN past the first violation."""

    beta: np.ndarray
    feasible: bool
    first_violation_stage: int | None


@dataclass(frozen=True)
class TruncationReport:
    """Where a grid truncates the error law; figures, not a verdict.

    tilted_std is the widest std of the exp-tilted visit law (from delta =
    0, never transmitting), coverage_tail the mass that law leaves beyond
    delta_max, and gh_cap_active whether the Hermite cap, not coverage,
    set the auto radius.  A small tail does not make W right, nor a large
    one wrong: Hermite extrapolates past the grid.
    """

    delta_max: float
    tilted_std: float
    coverage_tail: float
    gh_cap_active: bool


def _check_space(space: str) -> None:
    if space not in ("original", "folded"):
        raise ValueError(f"space must be 'original' or 'folded', got {space!r}")


def check_feasibility(params: ModelParams) -> FeasibilityReport:
    """Run beta_{t+1} = gamma + a^2 beta_t / (1 - 2 sigma2 beta_t), beta_0 = 0.

    The model is feasible iff 2 sigma2 beta_t < 1 for every t <= T; the
    report never raises, it carries the verdict.
    """
    T = params.horizon
    try:
        a2 = params.a**2
    except OverflowError:  # |a| > 1.34e154: every beta past beta_1 = gamma is +inf
        a2 = math.inf
    beta = np.full(T + 1, np.nan)
    beta[0] = 0.0
    first_violation = None
    for t in range(T + 1):
        if 2.0 * params.sigma2 * beta[t] >= 1.0:
            first_violation = t
            beta[t + 1 :] = np.nan
            break
        if t < T:
            # beta_0 = 0 contributes no growth for any a, also where a^2 is +inf
            growth = a2 * beta[t] / (1.0 - 2.0 * params.sigma2 * beta[t]) if t else 0.0
            beta[t + 1] = params.gamma + growth
    return FeasibilityReport(
        beta=beta, feasible=first_violation is None, first_violation_stage=first_violation
    )


def closed_form_never_transmit(params: ModelParams, delta, c, t: int):
    """log V_t under u == 0: log K_t + beta_t * delta^2 (channel-free).

    K_{t+1} = K_t / sqrt(1 - 2 sigma2 beta_t), K_0 = 1, from the Gaussian
    identity E[exp(b (m + w)^2)] = (1 - 2 sigma2 b)^{-1/2} exp(b m^2 /
    (1 - 2 sigma2 b)).
    """
    if not 0 <= t <= params.horizon:
        raise ValueError(f"stage t must lie in [0, {params.horizon}], got {t}")
    rep = check_feasibility(params)
    if rep.first_violation_stage is not None and rep.first_violation_stage < t:
        raise InfeasibleModelError(rep.first_violation_stage)
    # log K_t = -1/2 * sum_{s<t} log(1 - 2 sigma2 beta_s)
    log_k = float(-0.5 * np.sum(np.log1p(-2.0 * params.sigma2 * rep.beta[:t])))
    return log_k + rep.beta[t] * np.square(np.asarray(delta, dtype=float))


def _tilted_visit_std(params: ModelParams, beta: np.ndarray) -> float:
    """Max std of the exp-tilted never-transmit error path started at 0.

    Tilting the drift step by exp(beta (a*delta + w)^2) turns the noise into
    N(., sigma2 / (1 - 2 sigma2 beta)) and scales the gain by the same
    denominator; this is the widest law the solver's integrals see.
    """
    T = params.horizon
    v = 0.0
    vmax = params.sigma2
    for j in range(1, T + 1):
        den = 1.0 - 2.0 * params.sigma2 * beta[T - j]
        # v = 0 at j = 1 carries no gain term, also where a^2 overflows
        v = (params.a / den) ** 2 * v + params.sigma2 / den if j > 1 else params.sigma2 / den
        vmax = max(vmax, v)
    return math.sqrt(vmax)


def _hermite_cap(params: ModelParams, beta: np.ndarray, n_nodes: int) -> float:
    """Largest delta_max at which mean-centered Hermite stays accurate.

    Integrating exp(beta x^2)-shaped values shifts the effective integrand
    peak to y_hat = sqrt(2) sigma beta a delta / (1 - 2 sigma2 beta); the
    rule degrades once y_hat plus a few tilted stds nears the outermost
    Hermite node, so cap delta accordingly (worst stage: largest beta).
    """
    T = params.horizon
    if T == 0:
        return math.inf
    bstar = float(np.max(beta[: T]))
    alpha = 2.0 * params.sigma2 * bstar
    y_max = float(np.polynomial.hermite.hermgauss(n_nodes)[0].max())
    s_y = 1.0 / math.sqrt(2.0 * (1.0 - alpha))
    margin = 0.9 * y_max - 6.0 * s_y
    # No peak shift where a or beta* is 0, nor where their product underflows.
    den = math.sqrt(2.0) * params.sigma * bstar * abs(params.a)
    if margin <= 0.0 or den == 0.0:
        return math.inf  # the cap does not bind; fall back to coverage radius
    return margin * (1.0 - alpha) / den


def _radius_terms(params: ModelParams, quad: QuadratureSpec) -> tuple[float, float]:
    """(tilted std, Hermite cap) of a feasible model; the cap is +inf under
    the trapezoid rule.  Raises InfeasibleModelError otherwise."""
    rep = check_feasibility(params)
    if not rep.feasible:
        raise InfeasibleModelError(rep.first_violation_stage)
    std = _tilted_visit_std(params, rep.beta)
    cap = _hermite_cap(params, rep.beta, quad.n_nodes) if quad.rule == RULE_HERMITE else math.inf
    return std, cap


def auto_delta_max(params: ModelParams, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Truncation radius: tilted 6.5-sigma coverage, capped for Hermite safety
    (_hermite_cap) and floored at 2 sigma, rounded up to 0.1; 4 sigma at T = 0."""
    std, cap = _radius_terms(params, quad)
    if params.horizon == 0:
        return round(4.0 * params.sigma, 2)
    d = max(min(6.5 * std, cap), 2.0 * params.sigma)
    return float(np.ceil(d * 10.0) / 10.0)


def truncation_report(
    params: ModelParams, grid: GridSpec, quad: QuadratureSpec = QuadratureSpec()
) -> TruncationReport:
    """Truncation figures of grid for a feasible model.  gh_cap_active
    reads the Hermite cap that auto_delta_max applies: True iff it is below
    the 6.5-sigma coverage radius, never under the trapezoid rule."""
    std, cap = _radius_terms(params, quad)
    return TruncationReport(
        delta_max=grid.delta_max,
        tilted_std=std,
        coverage_tail=math.erfc(grid.delta_max / (std * math.sqrt(2.0))),
        gh_cap_active=bool(cap < 6.5 * std),
    )


def _logsumexp(a: np.ndarray, axis, _overwrite: bool = False) -> np.ndarray:
    """log(sum(exp(a))) over axis (an int or a tuple of ints).

    The max is subtracted for stability; where it is not finite 0 stands in
    for it, so all -inf slices give -inf and +inf entries propagate.  With
    _overwrite the shifted exponentials are formed in a itself, which saves
    a temporary of a's size and leaves a's memory order, and so the order
    of the sum, as it is.
    """
    mx = np.max(a, axis=axis, keepdims=True)
    mx[~np.isfinite(mx)] = 0.0
    e = np.subtract(a, mx, out=a if _overwrite else None)
    np.exp(e, out=e)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(e, axis=axis)) + np.squeeze(mx, axis=axis)


def _hermite_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite abscissas and weights, symmetrized so y[::-1] == -y bitwise."""
    y, wt = np.polynomial.hermite.hermgauss(n)
    return 0.5 * (y - y[::-1]), 0.5 * (wt + wt[::-1])


def _log_channel(params: ModelParams) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(params.channel_matrix())


def _stencil(
    params: ModelParams, grid: GridSpec, quad: QuadratureSpec, space: str, center: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray]:
    """Where one kernel branch reads a node table: (lo, hi, th, log_weight).

    Hermite reads W at center + sqrt(2) sigma y_k, interpolated in z =
    delta^2: the expectation at center i reduces log_weight[k, 0] +
    W[lo[k, i]], lerped towards W[hi[k, i]] by th[k, i], over k.  The arrays
    are abscissa-major, (n_nodes, len(center)), and log_weight is
    (n_nodes, 1).  Original space assumes no evenness, so lo and hi are
    signed around the center node and negative abscissae read the left
    half; folded space reads |x|.  Trapezoid reads the table's own nodes
    with no lerp (lo is np.newaxis, hi and th None): the expectation at
    center i reduces log_weight[i, k] + W[k] over k, center-major.  In
    folded space its kernel is the folded one, N(x; m, sigma2) +
    N(-x; m, sigma2), so node m > 0 carries the weights of +m and -m and
    node 0 its own.
    """
    mid = grid.n_points // 2
    if quad.rule == RULE_HERMITE:
        y, wt = _hermite_nodes(quad.n_nodes)
        x = center[None, :] + math.sqrt(2.0) * params.sigma * y[:, None]
        pos = grid.folded_nodes()
        zpos = pos * pos
        j = np.clip(np.searchsorted(pos, np.abs(x), side="right"), 1, len(pos) - 1)
        z0 = zpos[j - 1]
        # capped where x^2 overflows: a lerp across a zero slope stays 0, not NaN
        with np.errstate(over="ignore"):
            th = np.minimum((x * x - z0) / (zpos[j] - z0), np.finfo(float).max)
        side, origin = (np.where(x < 0, -1, 1), mid) if space == "original" else (1, 0)
        log_weight = np.log(wt) - 0.5 * math.log(math.pi)
        return origin + side * (j - 1), origin + side * j, th, log_weight[:, None]
    w = np.full(grid.n_points, grid.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    s2 = params.sigma2
    log_norm = 0.5 * math.log(2.0 * math.pi * s2)
    # One expression, so numpy reuses its (n_centers, n) temporaries in place.
    log_weight = np.log(w) + (
        -np.square(grid.nodes()[None, :] - center[:, None]) / (2.0 * s2) - log_norm
    )
    if space == "folded":
        fold = np.logaddexp(log_weight[:, mid + 1 :], log_weight[:, mid - 1 :: -1])
        log_weight = np.concatenate([log_weight[:, mid : mid + 1], fold], axis=1)
    # The table is read as it stands: np.newaxis makes the gather a view.
    return np.newaxis, None, None, log_weight


# Kernel branches: idle or lost attempt (center a*delta), delivery (center 0).
_DRIFT, _RESET = 0, 1


class _BellmanStage:
    """One application of the Bellman operator on a fixed grid.

    By default the operator acts on W = log V: stage costs are scaled by
    gamma and expectations are log-sum-exp reductions.  With risk_neutral it
    acts on additive values v: costs are unscaled and expectations are
    weighted sums.  Both domains share the quadrature, the interpolant, the
    channel mix and the idle/transmit branches.  Each branch's stencil is
    built once, here; a stage is then a gather, a lerp and one reduction per
    branch.
    """

    def __init__(
        self,
        params: ModelParams,
        grid: GridSpec,
        quad: QuadratureSpec,
        space: str,
        normalized: bool,
        risk_neutral: bool = False,
    ):
        _check_space(space)
        self.params = params
        self.grid = grid
        self.space = space
        self.risk_neutral = risk_neutral
        self.nodes = grid.nodes_for(space)
        self.z = np.square(self.nodes)
        self.logp = _log_channel(params)
        self.cost_scale = 1.0 if risk_neutral else params.gamma
        # Unnormalized kernels scale every branch by sqrt(2 pi sigma2).
        self.stage_shift = 0.0 if normalized else 0.5 * math.log(2.0 * math.pi * params.sigma2)
        # Indexed by _DRIFT and _RESET; additive weights in the risk-neutral domain.
        self.stencil = []
        for center in (params.a * self.nodes, np.zeros(1)):
            lo, hi, th, log_weight = _stencil(params, grid, quad, space, center)
            self.stencil.append((lo, hi, th, np.exp(log_weight) if risk_neutral else log_weight))

    def _integrate(self, w_t: np.ndarray, branch: int) -> np.ndarray:
        """Expected next-stage value from the kernel centers of branch.

        Log domain: log sum_{c+} p[c][c+] * int N(x; center, sigma2)
        exp(W_t(x, c+)) dx.  Risk-neutral: the same sum with v_t(x, c+) in
        place of exp(W_t).  The rule integrates each next-channel table; the
        channel mix is a second, 2-term reduction.  Returns
        (2, len(centers)) over the current channel c.
        """
        lo, hi, th, weight = self.stencil[branch]
        if th is None:
            # Trapezoid: every center reads the whole table, (2, 1, n) over
            # c+, so the terms are on the last axis.
            vals, axis = w_t[:, lo], 2
        else:
            # Hermite: (2, n_terms, len(centers)) over c+, terms on axis 1,
            # so each reduction runs over whole rows of centers.  Gathering
            # rows of w_t.T keeps c+ innermost in memory, where the
            # center-major fancy index w_t[:, lo.T] also puts it; numpy sums
            # in memory order, so both layouts sum in one order, to the bit.
            vals = np.take(w_t.T, lo, axis=0).transpose(2, 0, 1)
            vals *= 1.0 - th
            vals += np.take(w_t.T, hi, axis=0).transpose(2, 0, 1) * th
            axis = 1
        if self.risk_neutral:
            # A contraction, not a broadcast sum: no (2, n_centers, n)
            # temporary for the trapezoid rule.  einsum, not matmul: a
            # threaded BLAS matmul here took up to 0.14 s per solve against
            # 0.02 s at n_points=2001 on a 2-core host.
            per_next = np.einsum("ik,cik->ci" if axis == 2 else "ki,cki->ci", weight, vals)
            return np.exp(self.logp) @ per_next
        # The Hermite gather is a fresh array, so it takes the weights in place;
        # the trapezoid one is a view of w_t.
        terms = np.add(weight, vals, out=None if th is None else vals)
        per_next = _logsumexp(terms, axis, _overwrite=True)
        return _logsumexp(self.logp[:, :, None] + per_next[None, :, :], axis=1)

    def q_values(self, w_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(q_idle, q_transmit) at the grid nodes, each (2, n_nodes) over channel c."""
        p = self.params
        w_t = np.asarray(w_t, dtype=float)
        # Overflow here means the expectation diverged; it surfaces as a
        # non-finite entry that _iterate turns into InfeasibleModelError.
        with np.errstate(over="ignore", invalid="ignore"):
            drift = self._integrate(w_t, _DRIFT)
            reset = self._integrate(w_t, _RESET)
        price = self.cost_scale * p.lam
        q0 = self.cost_scale * self.z[None, :] + drift + self.stage_shift
        q1 = np.empty_like(q0)
        # Bad channel: the attempt is lost, so only the price is added.
        q1[0] = price + q0[0]
        q1[1] = price + reset[1, 0] + self.stage_shift
        return q0, q1


def _iterate(stage: _BellmanStage, force_u: int | None) -> tuple[np.ndarray, PolicyTable]:
    """Backward recursion table[j] = min(q_idle, q_transmit) for j = 1..T.

    u_star records the argmin with ties resolved to u = 0; force_u pins the
    action (0 or 1) at every decision, which turns the recursion into policy
    evaluation.  A non-finite table entry raises InfeasibleModelError.
    """
    n = len(stage.nodes)
    T = stage.params.horizon
    w = np.zeros((T + 1, 2, n))
    u_star = np.zeros((T + 1, 2, n), dtype=np.int8)
    q_margin = np.full((T + 1, 2, n), np.inf)
    for j in range(1, T + 1):
        q0, q1 = stage.q_values(w[j - 1])
        take = q1 < q0  # strict: ties idle
        if force_u is not None:
            take = np.full_like(take, bool(force_u))
        w[j] = np.where(take, q1, q0)
        u_star[j] = take
        q_margin[j] = q1 - q0
        if not np.all(np.isfinite(w[j])):
            raise InfeasibleModelError(j, f"value table overflowed at stage {j}")
    return w, PolicyTable(u_star=u_star, q_margin=q_margin, grid=stage.grid, space=stage.space)


def value_iterate(
    params: ModelParams,
    grid: GridSpec,
    quad: QuadratureSpec,
    space: str = "original",
    normalized: bool = True,
    force_u: int | None = None,
) -> tuple[LogValueTable, PolicyTable]:
    """Backward recursion W_{j+1} = min_u Q_{j+1}(., u) on the grid, W = log V.

    Returns tables indexed by stages-to-go j = 0..T; u_star records the
    argmin with ties resolved to u = 0.  force_u pins the action (0 or 1)
    at every decision, which turns the recursion into policy evaluation
    (u == 0 reproduces the closed form).
    """
    _check_space(space)
    if force_u not in (None, 0, 1):
        raise ValueError("force_u must be None, 0, or 1")
    rep = check_feasibility(params)
    if not rep.feasible:
        raise InfeasibleModelError(rep.first_violation_stage)
    w, policy = _iterate(_BellmanStage(params, grid, quad, space, normalized), force_u)
    return LogValueTable(w=w, grid=grid, space=space, normalized=normalized), policy


def risk_neutral_value_iterate(
    params: ModelParams,
    grid: GridSpec,
    quad: QuadratureSpec,
    space: str = "original",
) -> tuple[ValueTable, PolicyTable]:
    """Additive Bellman recursion with the same kernels and stage cost d.

    gamma is ignored; this is the gamma -> 0 limit of (1/gamma) * W.
    """
    stage = _BellmanStage(params, grid, quad, space, normalized=True, risk_neutral=True)
    v, policy = _iterate(stage, None)
    return ValueTable(v=v, grid=grid, space=space), policy
