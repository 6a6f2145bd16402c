"""Finite-horizon risk-sensitive value iteration in the log domain.

The target quantity is V_T(delta, c) = min over policies of
E[exp(gamma * sum of the T stage costs)], computed by the multiplicative
Bellman recursion V_0 := 1, V_{j+1} = min_u Q_{j+1}(., u).  Index j always
means "stages to go"; wall stage s of a horizon-T episode uses iterate T - s.

Values grow like exp(beta_j * delta^2), so they are stored as logs W = log
V.  The risk-neutral recursion (the gamma -> 0 limit of W / gamma) runs
through the same stage operator on additive values, where the expectations
are plain weighted sums.  Gaussian integrals use Gauss-Hermite quadrature
centered at the kernel mean (default) or a trapezoid rule on the grid itself
(cross-check).  A stage integrates one kernel, the idle step delta -> a *
delta + w from every node: a delivery resets the error to w, which is that
step from delta = 0, so its expectation is the idle one at the zero node.
The centers a * delta and the quadrature abscissae are the same at every
stage, so each rule's stencil is built once per solve.

Hermite reads off-grid values of W by piecewise-linear interpolation in z =
delta^2, which matches the exact never-transmit shape log K_j + beta_j *
delta^2 and hence is exact for that envelope; beyond delta_max the last two
nodes extrapolate linearly in z.  It reads the table by |delta|, so each
read lerps from a node to the next one out: a folded table as it stands,
an original one as its two halves, stacked once per stage.  Its stage is
a gather, a lerp and one log-sum-exp, laid out abscissa-major, (n_nodes,
n_centers): each reduction over the 64 terms then adds whole rows of
centers, where a reduction over a short last axis spent its time on
memory layout.  The stencil is built, and the stage taken, over blocks of
centers, so a solve holds one block's gathers, not the whole grid's; each
center's terms are added in the same order, so the tables are those of
the whole-grid stage to the bit.  A block gathers channel-major from the
table and from its copy one node out, into work buffers the stage
allocates once: blocks of fresh 256 kB arrays went back to the OS as
each was freed, so a fresh process faulted their pages in block after
block.  The abscissae come from hermgauss once per process (_hermgauss).

The trapezoid rule reads the table's own nodes, taken at x_k = k h, and
scales each kernel row to mass 1 on the grid: what a kernel puts past
+-delta_max is spread over the grid's nodes in proportion, so a table
constant in delta integrates to itself.  On signed node indices, a * x_i =
+-alpha i h with alpha = |a|, and (k -+ alpha i)^2 = alpha (i -+ k)^2 + (1 -
alpha) k^2 - alpha (1 - alpha) i^2, so the kernel factors as K = D_r G D_c:
G is Toeplitz (Hankel for a < 0) in one Gaussian g(m) = exp(-alpha h^2 m^2
/ 2 sigma2), D_c carries the trapezoid weights and exp(-(1 - alpha) h^2 k^2
/ 2 sigma2), and D_r, the normalization, is 1 over each row's sum of G D_c.
A solve stores g and the two log diagonals, O(n) numbers; the folded
kernel N(x; m, sigma2) + N(-x; m, sigma2) is the same product over the
table mirrored onto the full grid, once per stage.  A log-domain stage is log(G y) + s + log D_r with y =
exp(W_t + log D_c - s) and s the exponent's max, so every term lies in [0,
1].  The log diagonals are large where the sum is small, so they are
double-doubles and cancel exactly; G y is taken as direct sums of
nonnegative terms, in short runs added pairwise, never by FFT, whose error
is relative to the largest entry.  Each entry is then good to a few ulps of
max(1, |W|).  log D_r is minus the log of the product a flat table takes,
so W_0 = 0 integrates to 0 on every row, to the bit.  An entry that
underflows, or whose row's own sum does, is redone for its row alone as a
log-sum-exp less that of the row's weights, and where a log diagonal
leaves the float range every row is; a row with no mass on the grid
integrates to -inf.  The risk-neutral stage is the same product on v_t,
with no log.  Neither rule nor the channel mix calls BLAS, whose kernel
follows the CPU; Hermite's abscissae come from hermgauss, which calls
LAPACK.

A value past the float range is inf or NaN, judged by the checks after it
(a +inf beta is a violation; _factors' None, the guard, _iterate's check),
so check_feasibility, _BellmanStage.__init__, q_values and _integrate tell
numpy not to warn by an np.errstate decorator; _rows, which the tests
enter, and _logsumexp, which sim calls, hold their own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
        # the stages work in delta^2, which must stay finite on the grid
        if not self.delta_max * self.delta_max < math.inf:
            raise ValueError(f"delta_max = {self.delta_max!r} is too large: its square overflows")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError(f"n_points must be odd and >= 3, got {self.n_points}")
        # Hermite interpolates in delta^2, across steps of the squared nodes
        if self.spacing * self.spacing < np.finfo(float).tiny:
            raise ValueError(
                f"grid spacing {self.spacing!r} is too fine: its square underflows"
                f" (delta_max = {self.delta_max!r}, n_points = {self.n_points})"
            )

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
    one wrong: Hermite extrapolates past the grid, and the trapezoid rule
    scales each kernel row to mass 1 on it.
    """

    delta_max: float
    tilted_std: float
    coverage_tail: float
    gh_cap_active: bool


def _check_space(space: str) -> None:
    if space not in ("original", "folded"):
        raise ValueError(f"space must be 'original' or 'folded', got {space!r}")


@np.errstate(all="ignore")
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
    bstar = float(np.max(beta[: params.horizon], initial=0.0))
    alpha = 2.0 * params.sigma2 * bstar
    y_max = float(_hermgauss(n_nodes)[0].max())
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
    (_hermite_cap) and floored at 2 sigma, rounded up to 0.1; at T = 0, 4 sigma
    rounded to 0.01 and at least 0.01."""
    std, cap = _radius_terms(params, quad)
    if params.horizon == 0:
        return max(round(4.0 * params.sigma, 2), 0.01)
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


@functools.cache
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """hermgauss(n), read-only: its eigvalsh runs once per process and n,
    where auto_delta_max, truncation_report and the stencil each need it.
    hermgauss symmetrizes its rule, so y[::-1] == -y and w[::-1] == w
    bitwise."""
    rule = np.polynomial.hermite.hermgauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _hermite_stencil(
    params: ModelParams, grid: GridSpec, n_nodes: int, space: str, center: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the kernels at center read a table by |delta|: (lo, th, log_weight).

    Hermite reads W at center + sqrt(2) sigma y_k, interpolated in z =
    delta^2: the expectation at center i reduces log_weight[k, 0] +
    W[lo[k, i]], lerped towards W[lo[k, i] + 1] by th[k, i], over k.  W is
    read by |delta|: a folded table as it stands, an original one as its
    two halves from delta = 0 outwards, left first, which lo reads where
    the abscissa is negative.  The arrays are abscissa-major, (n_nodes,
    len(center)), and log_weight is (n_nodes, 1).  lo is int32.  They are
    written in blocks of centers, so the build holds them and one block's
    temporaries.
    """
    y, wt = _hermgauss(n_nodes)
    offset = math.sqrt(2.0) * params.sigma * y[:, None]
    pos = grid.folded_nodes()
    zpos = pos * pos
    lo = np.empty((n_nodes, len(center)), dtype=np.int32)
    th = np.empty(lo.shape)
    for cols in _center_blocks(len(center)):
        x = center[None, cols] + offset
        j = np.clip(np.searchsorted(pos, np.abs(x), side="right"), 1, len(pos) - 1)
        z0 = zpos[j - 1]
        # capped where x^2 overflows: a lerp across a zero slope stays 0, not NaN
        th[:, cols] = np.minimum((x * x - z0) / (zpos[j] - z0), np.finfo(float).max)
        lo[:, cols] = j - 1 + (np.where(x < 0, 0, len(pos)) if space == "original" else 0)
    log_weight = np.log(wt) - 0.5 * math.log(math.pi)
    return lo, th, log_weight[:, None]


# Terms of a trapezoid product entry that einsum sums in one run: a run's
# rounding stays near an ulp, and the runs are added pairwise.
_RUN = 64

# Terms per next channel of a trapezoid block: the guard takes 2^15 // row
# length whole kernel rows at a time, and the product as many rows of run
# sums, so a block's terms take about 512 kB.
_BLOCK_TERMS = 2**15

# Centers of a Hermite stencil built, or of a Hermite stage integrated, at a
# time: a block's (2, n_nodes, 256) gathers take 256 kB each at 64 nodes.
_CENTER_BLOCK = 256


def _center_blocks(n: int) -> list[slice]:
    """Slices of _CENTER_BLOCK centers over n centers.  A last block one
    center wide joins the block before it: its gathers would make the
    reduction axis contiguous, which numpy sums pairwise, not in order."""
    starts = list(range(0, n, _CENTER_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n])]


# Smallest trusted entry of a trapezoid product, 2^-970.  Its terms lie in
# [0, 1], and what a product loses to underflow, a few subnormal ulps per
# term, stays far below the last bit of any entry above it.
_PRODUCT_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


# Error-free transformations: a double-double (hi, lo) stands for hi + lo.
# The trapezoid factors are large numbers whose sum is small, so each is
# carried to about 2^-104 of its size and only their sum is rounded.
def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker), for |a|, |b|
    below 2^995."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    return p, e + (x[0] * y[1] + x[1] * y[0])


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    return s, e + (x[1] + y[1])


def _dd_exp(x):
    """exp(hi + lo) = exp(hi) (1 + lo) to about an ulp, for |lo| <= 2^-40."""
    return np.exp(x[0]) * (1.0 + x[1])


def _log_dd(x):
    """log x as a double-double: np.log and one Newton step, lo = x exp(-hi)
    - 1, which holds what rounding hi to a float lost.  lo = 0 where x is 0
    or not finite."""
    hi = np.log(x)
    lo = x * np.exp(-hi) - 1.0
    lo[~np.isfinite(lo)] = 0.0
    return hi, lo


def _dd_value(x):
    """hi + lo, rounded once; hi itself where it is not finite, where the
    error-free sums leave NaN in lo."""
    return np.where(np.isfinite(x[0]), x[0] + x[1], x[0])


def _log_sum(terms):
    """log(sum(exp(terms))) over the last axis as a double-double: the max,
    0 where it is not finite, plus the log of the shifted sum (_log_dd)."""
    peak = np.max(terms, axis=-1)
    peak[~np.isfinite(peak)] = 0.0
    sums = np.sum(np.exp(terms - peak[..., None]), axis=-1)
    return _dd_add((peak, 0.0), _log_dd(sums))


class _BellmanStage:
    """One application of the Bellman operator on a fixed grid.

    By default the operator acts on W = log V: stage costs are scaled by
    gamma and expectations are log-sum-exp reductions.  With risk_neutral it
    acts on additive values v: costs are unscaled and expectations are
    weighted sums.  Both domains share the quadrature, the interpolant and
    the channel mix.  The stencil of the idle step from every node is built
    once, here, and both actions read it.  Under Hermite a stage is then a
    gather, a lerp and one reduction per block of centers; under the
    trapezoid rule it is one Toeplitz product per next channel against the
    factored kernel built here.
    """

    @np.errstate(all="ignore")
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
        self.trapezoid = quad.rule == RULE_TRAPEZOID
        self.nodes = grid.nodes_for(space)
        self.z = np.square(self.nodes)
        self.logp = np.log(params.channel_matrix())
        self.cost_scale = 1.0 if risk_neutral else params.gamma
        # Unnormalized kernels scale every expectation by sqrt(2 pi sigma2).
        self.stage_shift = 0.0 if normalized else 0.5 * math.log(2.0 * math.pi * params.sigma2)
        # Kernel means of the idle step, and the node a delivery starts from;
        # a mean past the float range is inf, whose kernel lies off the grid.
        self.centers = params.a * self.nodes
        self.zero = 0 if space == "folded" else grid.n_points // 2
        if self.trapezoid:
            self.stencil = self._factors()
            return
        lo, th, log_weight = _hermite_stencil(params, grid, quad.n_nodes, space, self.centers)
        self.stencil = (lo, th, np.exp(log_weight) if risk_neutral else log_weight)
        # The stage's work arrays, flat and sized for the widest block, so
        # every solve stage reuses them: a block's indices, its two gathers
        # and its 1 - th.
        self.blocks = _center_blocks(len(self.centers))
        size = quad.n_nodes * max(b.stop - b.start for b in self.blocks)
        self.work = (
            np.empty(size, dtype=np.intp),
            np.empty(2 * size),
            np.empty(2 * size),
            np.empty(size),
        )

    def _factors(self) -> tuple | None:
        """(g, row, col): the normalized trapezoid kernel K = D_r G D_c of the
        module docstring.

        With c = h^2 / 2 sigma2 and signed indices, log g(m) = -alpha c m^2
        and col = log D_c,k = log weight_k - (1 - alpha) c k^2 - t on the
        full grid's nodes, t the max of the rest, so every term of a row's
        sum lies in [0, 1].  The product reads the full grid's table (in
        folded space the mirrored one), so g covers every index difference
        a row reads: len(centers) + n_points - 1 values.  col is a
        double-double from exact integer squares, and g is exp of one, so
        each is good to about an ulp of its own size.

        row scales each row to mass 1.  Log domain: minus the log, a
        double-double, of the product _scaled_product takes of a flat table,
        so such a table's stage cancels it to the bit.  Risk-neutral, where
        col is exponentiated: 1 over that product.  NaN on a row whose sum
        falls below _PRODUCT_FLOOR, so the guard redoes it.  None where a
        log factor leaves the float range: every row then takes the
        guard's path.
        """
        p, h = self.params, np.float64(self.grid.spacing)
        alpha = np.float64(abs(p.a))
        half = self.grid.n_points // 2
        k = np.arange(-half, half + 1)
        m2 = np.square(np.arange(-self.zero - half, 2 * half + 1), dtype=float)  # i + k
        log_weight = np.log(self._weights())
        # c = h^2 / 2 sigma2: the quotient, and the remainder's
        d, hh = np.float64(2.0 * p.sigma2), _two_prod(h, h)
        q = hh[0] / d
        qd = _two_prod(q, d)
        c = (q, ((hh[0] - qd[0]) - qd[1] + hh[1]) / d)
        slope = _dd_mul(_two_sum(np.float64(1.0), -alpha), c)  # (1 - alpha) c
        log_g = _dd_mul(_dd_mul((alpha, 0.0), c), (-m2, 0.0))
        col = _dd_add((log_weight, 0.0), _dd_mul(slope, (-np.square(k, dtype=float), 0.0)))
        if not all(np.isfinite(part).all() for part in (*log_g, *col)):
            return None
        g = _dd_exp(log_g)
        col = _dd_add(col, (-col[0].max(), 0.0))
        mass = self._scaled_product(g, col, np.zeros((2, len(k))))[1][0]
        thin = ~(mass >= _PRODUCT_FLOOR)
        if self.risk_neutral:
            row = 1.0 / mass
            row[thin] = np.nan
            return g, row, _dd_exp(col)
        log_mass = _log_dd(mass)
        return g, (np.where(thin, np.nan, -log_mass[0]), -log_mass[1]), col

    def _scaled_product(self, g: np.ndarray, col: tuple, w_t: np.ndarray) -> tuple:
        """(s, G exp(W_t + log D_c - s)) for w_t, a (c, n_points) table, with s
        the exponent's max per next channel, 0 where that is not finite, so
        every term lies in [0, 1].  The exponent is a double-double, so only
        the sums are rounded."""
        u = _dd_add((w_t, 0.0), col)
        s = np.max(u[0], axis=1, keepdims=True)
        s[~np.isfinite(s)] = 0.0
        u = _dd_add(u, (-s, 0.0))
        u[1][~np.isfinite(u[1])] = 0.0  # an infinite exponent is exact
        return s, self._product(g, _dd_exp(u))

    def _product(self, g: np.ndarray, y: np.ndarray) -> np.ndarray:
        """G y for each row of y, a (c, n_points) table over the full grid:
        (c, n_centers).

        Entry i is the sum of the window g[i : i + n_points] times the
        table: einsum sums it over runs of _RUN terms, and np.sum adds the
        runs pairwise, so an entry keeps about an ulp at any n, where one
        einsum over the whole row, a running sum, lost up to 12.  Neither
        calls BLAS, whose dot (np.correlate's) sums in an order that
        follows the CPU and, on long rows, the thread count.  That is a
        Hankel product; G is Hankel for a < 0 but Toeplitz for a >= 0, so
        it then reads the reversed table, copied: on a reversed view
        einsum's loop sums each run as one running sum, up to 2 ulps worse.
        A mirrored (folded) table is its own reverse, so either reading
        gives it the same sums.
        """
        if self.params.a >= 0:
            y = np.ascontiguousarray(y[:, ::-1])
        n = y.shape[1]
        windows = sliding_window_view(g, n)
        runs = range(0, n, _RUN)
        out = np.empty((len(y), len(windows)))
        step = max(1, _BLOCK_TERMS * _RUN // n)
        partial = np.empty((len(y), step, len(runs)))
        for first in range(0, len(windows), step):
            rows = slice(first, first + step)
            block = partial[:, : len(windows[rows])]
            for r, k in enumerate(runs):
                cols = slice(k, k + _RUN)
                np.einsum("ik,ck->ci", windows[rows, cols], y[:, cols], out=block[:, :, r])
            out[:, rows] = np.sum(block, axis=2)
        return out

    def _weights(self) -> np.ndarray:
        """Trapezoid weights of the full grid in spacings: 1, halved at both
        ends."""
        w = np.ones(self.grid.n_points)
        w[[0, -1]] = 0.5
        return w

    @np.errstate(all="ignore")
    def _rows(self, w_t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Trapezoid expectations of w_t, a (c, n_points) table over the full
        grid, at the centers of rows, (c, len(rows)), each from its kernel's
        own weights over the whole grid, in blocks of rows.

        Term k of row i is log(weight_k h / sqrt(2 pi sigma2)) - c (k -
        a i)^2 at signed node k, where a i (alpha i in folded space, whose
        mirrored table is even) is split exactly into two floats.  Log
        domain: the log-sum-exp of the terms plus W_t less that of the
        terms, each to a double-double, so a flat table integrates to itself
        to the bit; -inf on a row with no mass on the grid.  Risk-neutral:
        the weighted sum over the sum of the weights.
        """
        half = self.grid.n_points // 2
        a = self.params.a if self.space == "original" else abs(self.params.a)
        # log(h / sqrt(2 pi sigma2)), a kernel's log-weight at its center
        log_norm = 0.5 * math.log(2.0 * math.pi * self.params.sigma2)
        scale = _two_sum(np.float64(math.log(self.grid.spacing)), np.float64(-log_norm))
        log_w = np.log(self._weights()) + scale[0]
        nodes = np.arange(-half, half + 1.0)
        c = self.grid.spacing**2 / (2.0 * self.params.sigma2)
        out = np.empty((len(w_t), len(rows)))
        step = max(1, _BLOCK_TERMS // len(nodes))
        center, err = _two_prod(np.float64(a), rows - float(self.zero))
        err[~np.isfinite(err)] = 0.0
        for first in range(0, len(rows), step):
            block = slice(first, first + step)
            dist = (nodes - center[block, None]) - err[block, None]
            log_weight = log_w - c * (dist * dist)
            if self.risk_neutral:
                # shifted by the row's max, as _log_sum shifts, which keeps
                # the weights' ratios: unshifted, a kernel many sigmas from
                # every node underflows to 0 / 0.  A weight below the float
                # range is 0, as in a whole kernel.
                peak = np.max(log_weight, axis=1, keepdims=True)
                peak[~np.isfinite(peak)] = 0.0
                weight = _dd_exp((log_weight - peak, scale[1]))
                out[:, block] = np.einsum("ik,ck->ci", weight, w_t) / np.sum(weight, axis=1)
                continue
            mass = _log_sum(log_weight)
            table = _log_sum(w_t[:, None, :] + log_weight)
            value = _dd_value(_dd_add(table, (-mass[0], -mass[1])))
            out[:, block] = np.where(mass[0] == -np.inf, -np.inf, value)
        return out

    def _trapezoid(self, w_t: np.ndarray) -> np.ndarray:
        """Trapezoid expectations of w_t at every center, (2, n_centers) over c+.

        A folded table is mirrored onto the full grid once, here, and the
        product and the guard read that table.  Log domain: with u = W_t +
        log D_c and s its max per next channel, every term of G exp(u - s)
        lies in [0, 1], and per_next = log(G exp(u - s)) + log D_r + s.  u
        - s is a double-double, as is the log, by one Newton step, so the
        large terms cancel exactly and only their sum is rounded.
        Risk-neutral: (G (v_t col)) row.  Guard: an entry of the log-domain
        product below _PRODUCT_FLOOR, and an entry that is not finite, as on
        a row that the stencil's row marks NaN, is redone by _rows for its
        row alone.
        """
        if self.space == "folded":
            w_t = GridSpec.unfold(w_t)
        if self.stencil is None:
            return self._rows(w_t, np.arange(len(self.nodes)))
        g, row, col = self.stencil
        if self.risk_neutral:
            per_next = self._product(g, w_t * col) * row
            bad = ~np.all(np.isfinite(per_next), axis=0)
        else:
            s, prod = self._scaled_product(g, col, w_t)
            per_next = _dd_value(_dd_add(_dd_add(_log_dd(prod), row), (s, 0.0)))
            bad = ~np.all((prod >= _PRODUCT_FLOOR) & np.isfinite(per_next), axis=0)
        rows = np.flatnonzero(bad)
        if len(rows):
            per_next[:, rows] = self._rows(w_t, rows)
        return per_next

    @np.errstate(all="ignore")
    def _integrate(self, w_t: np.ndarray) -> np.ndarray:
        """Expected next-stage value of the idle step from every node.

        Log domain: log sum_{c+} p[c][c+] * int N(x; a * delta, sigma2)
        exp(W_t(x, c+)) dx.  Risk-neutral: the same sum with v_t(x, c+) in
        place of exp(W_t).  The rule integrates each next-channel table; the
        channel mix is a second, 2-term reduction.  Returns (2, n_nodes)
        over the current channel c.
        """
        if self.trapezoid:
            per_next = self._trapezoid(w_t)
        else:
            # Hermite, over blocks of centers: (2, n_terms, n_block) over c+,
            # channel-major and contiguous, gathered from the table by
            # |delta| and from its copy one node out.  The terms lie on axis
            # 1, so each reduction adds whole rows of centers, one term after
            # the next, as the center-major layout adds them (_center_blocks
            # leaves no block one center wide).  The block's arrays are views
            # of the stage's work buffers: fresh 256 kB arrays went back to
            # the OS when freed, and the next block faulted them in again.
            lo, th, weight = self.stencil
            mid = self.zero  # W by |delta|, as _hermite_stencil reads it
            table = w_t if self.space == "folded" else np.hstack((w_t[:, mid::-1], w_t[:, mid:]))
            upper = np.ascontiguousarray(table[:, 1:])
            index, low, high, rest = self.work
            per_next = np.empty((2, len(self.centers)))
            for cols in self.blocks:
                shape = (lo.shape[0], cols.stop - cols.start)
                size = shape[0] * shape[1]
                # lo as intp, which take needs, once for both gathers
                idx = index[:size].reshape(shape)
                np.copyto(idx, lo[:, cols])
                # under mode="raise" take fills a buffer of its own and
                # copies it to out; the indices are in range
                vals = low[: 2 * size].reshape(2, *shape)
                hi = high[: 2 * size].reshape(2, *shape)
                np.take(table, idx, axis=1, out=vals, mode="clip")
                np.take(upper, idx, axis=1, out=hi, mode="clip")
                vals *= np.subtract(1.0, th[:, cols], out=rest[:size].reshape(shape))
                hi *= th[:, cols]
                vals += hi
                if self.risk_neutral:
                    per_next[:, cols] = np.einsum("ki,cki->ci", weight, vals)
                else:
                    vals += weight
                    per_next[:, cols] = _logsumexp(vals, 1, _overwrite=True)
        if self.risk_neutral:
            # exact p (exp(log p) != p), and no BLAS, whose kernel follows the CPU
            P = self.params.channel_matrix()
            return P[:, :1] * per_next[0] + P[:, 1:] * per_next[1]
        return _logsumexp(self.logp[:, :, None] + per_next[None, :, :], axis=1)

    @np.errstate(all="ignore")
    def q_values(self, w_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(q_idle, q_transmit) at the grid nodes, each (2, n_nodes) over channel c."""
        p = self.params
        w_t = np.asarray(w_t, dtype=float)
        drift = self._integrate(w_t)
        price = self.cost_scale * p.lam
        q0 = self.cost_scale * self.z[None, :] + drift + self.stage_shift
        q1 = np.empty_like(q0)
        # Bad channel: the attempt is lost, so only the price is added.
        q1[0] = price + q0[0]
        # Good channel: Delta(t+1) = w(t), the idle step from delta = 0.
        q1[1] = price + drift[1, self.zero] + self.stage_shift
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
        # Checked before the margin: two -inf q-values would make it NaN.
        if not np.all(np.isfinite(w[j])):
            raise InfeasibleModelError(j, f"value table overflowed at stage {j}")
        u_star[j] = take
        q_margin[j] = q1 - q0
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
