"""Solver tests: feasibility, closed form vs numeric integration, both
quadrature rules, structural invariants of the value tables."""

import copy
import dataclasses
import functools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import dblquad, quad
from scipy.special import logsumexp, ndtr
from scipy.stats import norm

from risksched import (
    GridSpec,
    InfeasibleModelError,
    ModelParams,
    QuadratureSpec,
    auto_delta_max,
    check_feasibility,
    closed_form_never_transmit,
    extract_thresholds,
    risk_neutral_value_iterate,
    truncation_report,
    value_iterate,
)
from risksched import solver
from risksched.solver import (
    _CENTER_BLOCK,
    _PRODUCT_FLOOR,
    _BellmanStage,
    _dd_exp,
    _hermite_nodes,
    _iterate,
    _logsumexp,
)

HERMITE = QuadratureSpec()
TRAPEZOID = QuadratureSpec(rule="trapezoid-on-grid")


def mk(**kw):
    base = dict(a=0.9, sigma2=1.0, lam=1.0, gamma=0.05, horizon=3, p01=0.3, p10=0.2)
    base.update(kw)
    return ModelParams(**base)


def by_magnitude(stage, w_t):
    """w_t as the Hermite stencil reads it, by |delta|: a folded table as it
    stands, an original one as its two halves from 0 outwards, left first."""
    if stage.space == "folded":
        return w_t
    return np.concatenate((w_t[:, stage.zero :: -1], w_t[:, stage.zero :]), axis=1)


def risk_neutral_mix(stage, per_next):
    """The risk-neutral channel mix, elementwise with the exact P[c][c+]."""
    P = stage.params.channel_matrix()
    return P[:, :1] * per_next[0] + P[:, 1:] * per_next[1]


class TestGridSpec:
    def test_nodes_are_bitwise_symmetric(self):
        grid = GridSpec(6.3, 201)
        nodes = grid.nodes()
        assert np.array_equal(nodes, -nodes[::-1])
        assert nodes[grid.n_points // 2] == 0.0

    def test_folded_nodes_are_the_right_half(self):
        grid = GridSpec(4.0, 41)
        assert np.array_equal(grid.folded_nodes(), grid.nodes()[grid.n_points // 2 :])
        assert grid.n_folded == 21

    def test_unfold_mirrors_the_last_axis(self):
        grid = GridSpec(4.0, 7)
        folded = np.arange(24.0).reshape(2, 3, 4)
        full = grid.unfold(folded)
        assert full.shape == (2, 3, 7)
        assert np.array_equal(full, full[..., ::-1])
        assert np.array_equal(full[..., 3:], folded)
        assert grid.unfold(np.array([0.0, 1.0, 2.5]), odd=True).tolist() == [-2.5, -1.0, 0.0, 1.0, 2.5]

    def test_spacing(self):
        assert GridSpec(2.0, 17).spacing == 0.25

    @pytest.mark.parametrize(
        "dmax,n",
        [(0.0, 11), (-1.0, 11), (math.inf, 11), (math.nan, 11), (2.0, 10), (2.0, 1), (1.4e154, 101)],
    )
    def test_rejects_bad_grids(self, dmax, n):
        with pytest.raises(ValueError):
            GridSpec(dmax, n)

    def test_radius_square_must_be_finite(self):
        # the largest radius whose square is finite is a grid, the next float is not
        r = math.sqrt(sys.float_info.max)
        assert GridSpec(r, 3).spacing == r
        with pytest.raises(ValueError, match="its square overflows"):
            GridSpec(math.nextafter(r, math.inf), 3)

    def test_quadrature_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rule="simpson")
        with pytest.raises(ValueError):
            QuadratureSpec(n_nodes=4)
        QuadratureSpec(rule="trapezoid-on-grid", n_nodes=4)  # n_nodes unused there


class TestFeasibility:
    def test_gaussian_tilt_identity(self):
        # E[exp(b*(m+w)^2)] = (1-2*s2*b)^(-1/2) * exp(b*m^2/(1-2*s2*b)),
        # the identity the beta/K recursion is built on, checked by quadrature.
        b, m, s2 = 0.3, 1.1, 0.8
        log_norm = -0.5 * math.log(2 * math.pi * s2)
        lhs, _ = quad(
            # exponents combined so quad's far probes underflow instead of overflowing
            lambda w: math.exp(log_norm - w**2 / (2 * s2) + b * (m + w) ** 2),
            -np.inf,
            np.inf,
        )
        rhs = (1 - 2 * s2 * b) ** -0.5 * math.exp(b * m**2 / (1 - 2 * s2 * b))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_beta_recursion_values(self):
        p = mk(gamma=0.1, horizon=3)
        rep = check_feasibility(p)
        beta = [0.0]
        for _ in range(3):
            beta.append(p.gamma + p.a**2 * beta[-1] / (1 - 2 * p.sigma2 * beta[-1]))
        assert_allclose(rep.beta, beta, rtol=1e-15)
        assert rep.feasible
        assert rep.first_violation_stage is None

    def test_violation_at_final_stage_counts(self):
        # the same recursion one stage further breaches the bound at t = T
        rep = check_feasibility(mk(gamma=0.1, horizon=4))
        assert not rep.feasible
        assert rep.first_violation_stage == 4

    def test_detects_violation_stage(self):
        # 2*sigma2*beta_1 = 2*0.6 >= 1 already
        rep = check_feasibility(mk(gamma=0.6, horizon=3))
        assert not rep.feasible
        assert rep.first_violation_stage == 1
        assert rep.beta[1] == 0.6
        assert np.all(np.isnan(rep.beta[2:]))

    def test_beta_past_the_float_range_warns_of_nothing(self):
        # a^2 beta_2 = 1e308 * 1e8 overflows: beta_3 is +inf, a violation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_feasibility(mk(a=1e154, sigma2=1e-10, gamma=1e-300))
        assert rep.beta[3] == math.inf
        assert rep.first_violation_stage == 3

    @pytest.mark.parametrize("T", [1, 2])
    def test_overflowing_gain(self, T):
        # a^2 overflows a float: beta_1 = gamma for every a, and beta_2 = +inf
        rep = check_feasibility(mk(a=1e200, horizon=T))
        assert rep.beta.tolist() == [0.0, 0.05, math.inf][: T + 1]
        assert rep.feasible == (T == 1)
        assert rep.first_violation_stage == (None if T == 1 else 2)
        if T == 1:  # the tilted std's first step has no gain term either
            assert auto_delta_max(mk(a=1e200, horizon=T)) == 6.5

    def test_value_iterate_raises_on_infeasible(self):
        p = mk(gamma=0.6, horizon=3)
        with pytest.raises(InfeasibleModelError) as ei:
            value_iterate(p, GridSpec(4.0, 41), HERMITE)
        assert ei.value.stage == 1

    def test_closed_form_valid_up_to_violation(self):
        p = mk(gamma=0.6, horizon=3)
        # V_1 is still finite (the divergence bites when integrating it)
        assert closed_form_never_transmit(p, 1.0, 0, 1) == pytest.approx(0.6)
        with pytest.raises(InfeasibleModelError):
            closed_form_never_transmit(p, 1.0, 0, 2)

    def test_closed_form_stage_bounds(self):
        with pytest.raises(ValueError):
            closed_form_never_transmit(mk(), 0.0, 0, 7)


class TestClosedForm:
    def test_matches_single_quadrature_at_two_stages(self):
        # V_2(d) = exp(g*d^2) * E[exp(g*(a*d+w)^2)], integrated directly.
        p = mk(gamma=0.08, horizon=3)
        log_norm = -0.5 * math.log(2 * math.pi)
        for d in (0.0, 1.7):
            direct, _ = quad(
                lambda w: math.exp(log_norm - w**2 / 2 + p.gamma * (p.a * d + w) ** 2),
                -np.inf,
                np.inf,
            )
            expected = p.gamma * d**2 + math.log(direct)
            got = float(closed_form_never_transmit(p, d, 0, 2))
            assert got == pytest.approx(expected, abs=1e-9)

    def test_matches_double_quadrature_at_three_stages(self):
        p = mk(gamma=0.08, horizon=3)
        d = 1.2

        def integrand(w1, w0):
            d1 = p.a * d + w0
            d2 = p.a * d1 + w1
            return norm.pdf(w0) * norm.pdf(w1) * math.exp(p.gamma * (d1**2 + d2**2))

        direct, _ = dblquad(integrand, -8, 8, -8, 8)
        expected = p.gamma * d**2 + math.log(direct)
        got = float(closed_form_never_transmit(p, d, 0, 3))
        assert got == pytest.approx(expected, abs=1e-7)

    def test_channel_free(self):
        p = mk()
        d = np.linspace(-2, 2, 5)
        assert_allclose(
            closed_form_never_transmit(p, d, 0, 3),
            closed_form_never_transmit(p, d, 1, 3),
            rtol=0,
            atol=0,
        )


class TestSingleStageTables:
    def test_forced_idle_one_stage(self):
        p = mk(horizon=1)
        grid = GridSpec(4.0, 81)
        table, _ = value_iterate(p, grid, HERMITE, force_u=0)
        z = np.square(grid.nodes())
        assert_allclose(table.w[1], np.broadcast_to(p.gamma * z, (2, len(z))), atol=1e-12)

    def test_forced_transmit_one_stage(self):
        p = mk(horizon=1, lam=1.5)
        grid = GridSpec(4.0, 81)
        table, _ = value_iterate(p, grid, HERMITE, force_u=1)
        z = np.square(grid.nodes())
        # bad channel: pay and lose; good channel: pay, error forgiven
        assert_allclose(table.w[1, 0], p.gamma * (p.lam + z), atol=1e-12)
        assert_allclose(table.w[1, 1], np.full(len(z), p.gamma * p.lam), atol=1e-12)

    def test_one_stage_threshold_lands_on_grid(self):
        # transmit iff gamma*lam < gamma*delta^2 (strict; ties idle), so the
        # extracted threshold is the smallest node with delta^2 > lam.
        p = mk(horizon=1, lam=1.0)
        grid = GridSpec(2.0, 17)  # spacing 0.25; 1.0 is a node and ties idle
        _, pol = value_iterate(p, grid, HERMITE, space="folded")
        schedule = extract_thresholds(pol, grid)
        assert schedule.threshold[1, 1] == 1.25
        assert schedule.threshold[1, 0] == np.inf
        assert np.all(schedule.threshold[0] == np.inf)


def stages_with_tables(p, grid, j, quad=HERMITE):
    """(stage, table at j stages to go, transmit price) for both domains."""
    table, _ = value_iterate(p, grid, quad)
    rn, _ = risk_neutral_value_iterate(p, grid, quad)
    return [
        (_BellmanStage(p, grid, quad, "original", True), table.w[j], p.gamma * p.lam),
        (_BellmanStage(p, grid, quad, "original", True, risk_neutral=True), rn.v[j], p.lam),
    ]


class TestQValues:
    def test_bad_channel_transmit_is_idle_plus_price(self):
        p = mk()
        for stage, w, price in stages_with_tables(p, GridSpec(6.0, 121), 2):
            q0, q1 = stage.q_values(w)
            # bitwise: the transmit branch is computed as price + idle branch
            assert np.array_equal(q1[0], price + q0[0])

    @pytest.mark.parametrize("quad", [HERMITE, TRAPEZOID], ids=["hermite", "trapezoid"])
    def test_good_channel_transmit_is_idle_from_zero_plus_price(self, quad):
        # a delivery resets the error to w, the idle step from delta = 0
        p = mk()
        for stage, w, price in stages_with_tables(p, GridSpec(6.0, 121), 2, quad):
            zero = np.flatnonzero(stage.nodes == 0.0)[0]
            q0, q1 = stage.q_values(w)
            assert np.array_equal(q1[1], np.full(len(stage.nodes), price + q0[1, zero]))

    def test_good_channel_transmit_is_flat(self):
        p = mk()
        for stage, w, _ in stages_with_tables(p, GridSpec(6.0, 121), 1):
            _, q1 = stage.q_values(w)
            assert np.ptp(q1[1]) == 0.0

    def test_overflow_raises_infeasible(self):
        # gamma * delta^2 overflows at stage 1.  value_iterate refuses this
        # model up front, so the shared recursion is driven directly.
        stage = _BellmanStage(mk(gamma=1e308), GridSpec(6.0, 121), HERMITE, "original", True)
        with pytest.raises(InfeasibleModelError, match="value table overflowed at stage 1") as err:
            _iterate(stage, None)
        assert err.value.stage == 1


class TestUnevenTable:
    """Original space assumes no evenness: negative abscissae read the left half.

    Solved tables are even, so a stage that read the right half for
    negative queries would pass every solve; these feed it an uneven one and
    check both kernel integrals against an independent evaluation.
    """

    GRID = GridSpec(10.0, 201)

    def uneven_table(self):
        d = self.GRID.nodes()
        return np.stack([0.04 * d**2 + 0.3 * np.tanh(d), 0.2 + 0.04 * d**2 - 0.5 * np.tanh(d / 2)])

    def expectations(self, p, quad, w, center):
        """log E[exp(w(X, c+))] for X ~ N(center, sigma2), (2, len(center)) over c+;
        the trapezoid rule scales each kernel row to mass 1 on the grid."""
        d = self.GRID.nodes()
        if quad.rule == TRAPEZOID.rule:
            tw = np.full(len(d), self.GRID.spacing)
            tw[[0, -1]] *= 0.5
            dens = tw * norm.pdf(d[None, :], loc=center[:, None], scale=p.sigma)
            dens /= dens.sum(axis=1, keepdims=True)
            return np.array([logsumexp(w[c][None, :], b=dens, axis=1) for c in (0, 1)])
        # per-side interpolation in z = delta^2 at the Hermite abscissae
        y, wt = np.polynomial.hermite.hermgauss(quad.n_nodes)
        x = center[:, None] + math.sqrt(2.0 * p.sigma2) * y[None, :]
        mid = self.GRID.n_points // 2
        z = np.square(d[mid:])
        vals = [
            np.where(x < 0, np.interp(x * x, z, w[c, mid::-1]), np.interp(x * x, z, w[c, mid:]))
            for c in (0, 1)
        ]
        return np.array([logsumexp(v, b=wt / math.sqrt(math.pi), axis=1) for v in vals])

    @pytest.mark.parametrize(
        "quad", [QuadratureSpec(n_nodes=16), TRAPEZOID], ids=["hermite", "trapezoid"]
    )
    def test_original_space_reads_each_half(self, quad):
        p = mk()
        d = self.GRID.nodes()
        w = self.uneven_table()
        assert np.max(np.abs(w - w[:, ::-1])) > 0.5
        q0, q1 = _BellmanStage(p, self.GRID, quad, "original", True).q_values(w)

        logp = np.log(p.channel_matrix())[:, :, None]
        drift = logsumexp(logp + self.expectations(p, quad, w, p.a * d)[None], axis=1)
        reset = logsumexp(logp + self.expectations(p, quad, w, np.zeros(1))[None], axis=1)
        price = p.gamma * p.lam
        exp_q0 = p.gamma * d**2 + drift
        exp_q1 = np.stack([price + exp_q0[0], np.full(len(d), price + reset[1, 0])])

        inside = np.ones(len(d), dtype=bool)
        if quad.rule != TRAPEZOID.rule:
            # np.interp does not extrapolate: compare at the centers whose
            # abscissae all stay on the grid (a band that straddles delta = 0).
            y_max = np.polynomial.hermite.hermgauss(quad.n_nodes)[0].max()
            inside = np.abs(p.a * d) + math.sqrt(2.0 * p.sigma2) * y_max <= self.GRID.delta_max
            assert np.sum(inside) > 50
        assert_allclose(q0[:, inside], exp_q0[:, inside], rtol=0, atol=1e-12)
        assert_allclose(q1[:, inside], exp_q1[:, inside], rtol=0, atol=1e-12)


class TestFoldedStage:
    """On an even table the folded stage is the original one on the right half."""

    GRID = GridSpec(10.0, 201)
    A = 0.9

    def half_table(self):
        d = self.GRID.folded_nodes()
        return np.stack([0.04 * d**2 + 0.3 * np.tanh(d), 0.2 + 0.04 * d**2 - 0.5 * np.tanh(d / 2)])

    @pytest.mark.parametrize("risk_neutral", [False, True], ids=["log", "risk-neutral"])
    @pytest.mark.parametrize("quad", [HERMITE, TRAPEZOID], ids=["hermite", "trapezoid"])
    def test_q_values_match_the_right_half(self, quad, risk_neutral):
        p = mk(a=self.A)
        mid = self.GRID.n_points // 2
        w_half = self.half_table()
        folded = _BellmanStage(p, self.GRID, quad, "folded", True, risk_neutral)
        original = _BellmanStage(p, self.GRID, quad, "original", True, risk_neutral)
        for got, want in zip(folded.q_values(w_half), original.q_values(GridSpec.unfold(w_half))):
            assert_allclose(got, want[:, mid:], rtol=0, atol=1e-12)

    def test_folded_trapezoid_kernel_keeps_the_row_mass(self):
        # node m > 0 of the folded kernel carries the weights of +m and -m:
        # both spaces scale a row by the same mass, the row sum of the
        # kernel's own trapezoid weights, and both domains by the same one
        mid = self.GRID.n_points // 2
        folded = _BellmanStage(mk(a=self.A), self.GRID, TRAPEZOID, "folded", True)
        original = _BellmanStage(mk(a=self.A), self.GRID, TRAPEZOID, "original", True)
        # O(n) numbers: g at every index difference a row reads, and the two
        # diagonals as double-doubles (hi, lo), row over the folded centers
        # and col over the full grid, whose mirrored table the product reads
        g, row, col = folded.stencil
        assert g.shape == (self.GRID.n_folded + self.GRID.n_points - 1,)
        assert all(part.shape == (self.GRID.n_folded,) for part in row)
        assert all(part.shape == (self.GRID.n_points,) for part in col)
        ulps = 1e-14 * np.maximum(1.0, np.abs(row[0]))
        assert np.all(np.abs(original.stencil[1][0][mid:] - row[0]) <= ulps)
        # -row is the log of the row's sum of G D_c: the kernel's own
        # trapezoid row sum over exp(alpha (1 - alpha) c i^2), as col's
        # shift t is 0 here (col peaks at node 0)
        ld = np.longdouble
        h, s2, alpha = ld(self.GRID.spacing), ld(1.0), ld(abs(self.A))
        i = np.arange(self.GRID.n_folded).astype(ld)[:, None]
        k = np.arange(-mid, mid + 1).astype(ld)[None, :]
        weight = np.where(np.abs(k) == mid, ld(0.5), ld(1.0))
        c = h * h / (2 * s2)
        mass = np.sum(weight * np.exp(-c * (k - alpha * i) ** 2), axis=1)
        want = np.log(mass) - alpha * (1 - alpha) * c * i[:, 0] ** 2
        assert np.all(np.abs((-row[0] - row[1]) - want.astype(float)) <= ulps)
        # each row then has mass 1, and the risk-neutral stage scales its
        # rows by the same mass
        sums = folded._product(g, _dd_exp(col)[None, :])[0]
        assert_allclose(np.exp(row[0]) * sums, 1.0, rtol=1e-14)
        rn = _BellmanStage(mk(a=self.A), self.GRID, TRAPEZOID, "folded", True, True)
        _, rn_row, rn_col = rn.stencil
        assert_allclose(rn_row, np.exp(row[0]), rtol=1e-14, atol=0)
        assert_allclose(rn_row * rn._product(g, rn_col[None, :])[0], 1.0, rtol=1e-14)


class TestFoldedStageNegativeGain(TestFoldedStage):
    """The same at a < 0, where every drift center a * delta of the folded
    grid is <= 0 and the folded kernel reads it as |a * delta|."""

    A = -0.9


class TestHermiteLayout:
    """The abscissa-major Hermite stage reproduces the center-major one bit for bit.

    The reference gathers with a fancy index on the transposed stencil,
    (2, n_nodes, n_terms) over c+, and reduces the last axis out of place;
    numpy's sums follow memory order, so a gather that changed it could move
    a sum by an ulp.
    """

    GRID = GridSpec(10.0, 201)

    @staticmethod
    def center_major(stage, w_t):
        lo, th, weight = stage.stencil
        table = by_magnitude(stage, w_t)
        vals = table[:, lo.T]
        vals = vals * (1.0 - th.T) + table[:, lo.T + 1] * th.T
        if stage.risk_neutral:
            return risk_neutral_mix(stage, np.einsum("ik,cik->ci", weight.T, vals))
        per_next = _logsumexp(weight.T + vals, axis=2)
        return _logsumexp(stage.logp[:, :, None] + per_next[None, :, :], axis=1)

    def tables(self, nodes):
        quadratic = np.stack([0.04 * nodes**2, 0.3 + 0.05 * nodes**2 - 0.2 * np.tanh(nodes)])
        neg_inf = quadratic.copy()
        # V = 0 on interior bands, so the lerp meets -inf inside the grid only
        neg_inf[0, np.abs(nodes) <= 3.0] = -np.inf
        neg_inf[1, (2.0 <= np.abs(nodes)) & (np.abs(nodes) <= 6.0)] = -np.inf
        pos_inf = quadratic.copy()
        pos_inf[1, len(nodes) // 3] = np.inf
        return {"quadratic": quadratic, "-inf": neg_inf, "+inf": pos_inf}

    @pytest.mark.parametrize("p01", [0.3, 0.0])
    @pytest.mark.parametrize("risk_neutral", [False, True], ids=["log", "risk-neutral"])
    @pytest.mark.parametrize("space", ["original", "folded"])
    def test_integrate_matches_center_major(self, space, risk_neutral, p01):
        stage = _BellmanStage(mk(p01=p01), self.GRID, HERMITE, space, True, risk_neutral)
        for name, w_t in self.tables(stage.nodes).items():
            with np.errstate(all="ignore"):
                got = stage._integrate(w_t)
                want = self.center_major(stage, w_t)
            assert got.shape == want.shape == (2, len(stage.nodes))
            assert np.array_equal(got, want, equal_nan=True), name


class TestHermiteBlocks:
    """The Hermite stage taken over blocks of centers reproduces the
    whole-grid stage bit for bit, stencil and all.

    The reference is the stage as it stood before the blocks: the stencil
    built for every center at once, then one abscissa-major gather, lerp and
    reduction over the whole grid.  Each center's terms keep their memory
    order, so a block boundary must not move a sum by an ulp.  The
    reference also reads the table as it stood then, original space by a
    signed side from the center node, where the stage reads it by |delta|.
    """

    INSTANCES = {
        "standard": {},
        "boundary": dict(a=0.0, sigma2=87.6, lam=41.5, gamma=0.00569, horizon=2),
        "a=-0.9": dict(a=-0.9),
    }
    COUNTS = {
        "B-1": lambda b: b - 1,
        "B": lambda b: b,
        "B+1": lambda b: b + 1,
        "2B+1": lambda b: 2 * b + 1,
    }

    @staticmethod
    def whole_grid_stencil(stage, n_nodes):
        p, grid = stage.params, stage.grid
        mid = grid.n_points // 2
        y, wt = _hermite_nodes(n_nodes)
        x = stage.centers[None, :] + math.sqrt(2.0) * p.sigma * y[:, None]
        pos = grid.folded_nodes()
        zpos = pos * pos
        j = np.clip(np.searchsorted(pos, np.abs(x), side="right"), 1, len(pos) - 1)
        z0 = zpos[j - 1]
        with np.errstate(over="ignore"):
            th = np.minimum((x * x - z0) / (zpos[j] - z0), np.finfo(float).max)
        side, origin = (np.where(x < 0, -1, 1), mid) if stage.space == "original" else (1, 0)
        log_weight = (np.log(wt) - 0.5 * math.log(math.pi))[:, None]
        weight = np.exp(log_weight) if stage.risk_neutral else log_weight
        return origin + side * (j - 1), origin + side * j, th, weight

    @staticmethod
    def whole_grid_integrate(stage, w_t):
        lo, hi, th, weight = stage.stencil
        vals = np.take(w_t.T, lo, axis=0).transpose(2, 0, 1)
        vals *= 1.0 - th
        vals += np.take(w_t.T, hi, axis=0).transpose(2, 0, 1) * th
        if stage.risk_neutral:
            return risk_neutral_mix(stage, np.einsum("ki,cki->ci", weight, vals))
        per_next = _logsumexp(np.add(weight, vals, out=vals), 1, _overwrite=True)
        return _logsumexp(stage.logp[:, :, None] + per_next[None, :, :], axis=1)

    @pytest.mark.parametrize("count", COUNTS.values(), ids=COUNTS.keys())
    @pytest.mark.parametrize("risk_neutral", [False, True], ids=["log", "risk-neutral"])
    @pytest.mark.parametrize("space", ["original", "folded"])
    @pytest.mark.parametrize("instance", INSTANCES.values(), ids=INSTANCES.keys())
    def test_q_values_match_whole_grid(self, monkeypatch, instance, space, risk_neutral, count):
        block = _CENTER_BLOCK
        if space == "original" and count(block) % 2 == 0:
            # an original grid has an odd number of centers, so shrink the block
            block -= 1
            monkeypatch.setattr(solver, "_CENTER_BLOCK", block)
        n_centers = count(block)
        p = mk(**instance)
        n_points = n_centers if space == "original" else 2 * n_centers - 1
        grid = GridSpec(auto_delta_max(p, HERMITE), n_points)
        stage = _BellmanStage(p, grid, HERMITE, space, True, risk_neutral)
        assert len(stage.centers) == n_centers
        whole = copy.copy(stage)
        whole.stencil = self.whole_grid_stencil(stage, HERMITE.n_nodes)
        whole._integrate = functools.partial(self.whole_grid_integrate, whole)
        # the stage keeps lo as int32 and hi as lo + 1 in the table by
        # |delta|, whose entries are the nodes the reference reads
        lo, th, weight = stage.stencil
        assert lo.dtype == np.int32
        node = by_magnitude(stage, np.arange(len(stage.nodes))[None, :])[0]
        for got, want in zip((node[lo], node[lo + 1], th, weight), whole.stencil):
            assert got.tobytes() == np.asarray(want, dtype=got.dtype).tobytes()
        nodes = stage.nodes
        flat = np.zeros((2, len(nodes)))
        tables = {
            "stage 1": np.minimum(*stage.q_values(flat)),
            "quadratic": np.stack([0.04 * nodes**2, 0.3 + 0.05 * nodes**2 - 0.2 * np.tanh(nodes)]),
        }
        neg_inf = tables["quadratic"].copy()
        neg_inf[0, np.abs(nodes) <= grid.delta_max / 3] = -np.inf
        tables["-inf"] = neg_inf
        for name, w_t in tables.items():
            with np.errstate(all="ignore"):
                got, want = stage.q_values(w_t), whole.q_values(w_t)
            for g, w in zip(got, want):
                assert g.shape == (2, n_centers)
                assert g.tobytes() == w.tobytes(), name


class TestTrapezoidProduct:
    """The factored product stage reproduces the normalized log-sum-exp
    trapezoid stage.

    The reference is that stage as a whole-kernel log-sum-exp (log domain)
    or weighted sum (risk neutral), less the log of, or over, the row's own
    mass, taken in extended precision on nodes k h, so that its own
    rounding does not count against the stage: in
    float64, on the nodes GridSpec rounds, it is itself up to 28 ulps from
    the sum it takes at a = 1.3, sigma2 = e^-2.  The risk-neutral weights
    are taken relative to the row's largest, as the stage takes them, and
    rounded to float64, so a weight that underflows is 0 in both, and -inf
    * 0 is NaN in both.  Differences are bounded in ulps of max(1, |W|);
    infinities and NaNs must match exactly.
    """

    GRID = GridSpec(10.0, 201)
    ULPS = 8

    @staticmethod
    def reference(stage, w_t):
        ld = np.longdouble
        assert np.finfo(ld).eps < np.finfo(float).eps / 2**8, "needs an extended long double"
        p, grid = stage.params, stage.grid
        half = grid.n_points // 2
        k = np.arange(-half, half + 1).astype(ld)
        i = (np.arange(len(stage.nodes)) - stage.zero).astype(ld)
        # folded space mirrors its table onto the full grid, centers at |a| i
        a = ld(p.a) if stage.space == "original" else ld(abs(p.a))
        h, s2 = ld(grid.spacing), ld(p.sigma2)
        w = np.full(len(k), h)
        w[[0, -1]] /= 2
        log_weight = (
            np.log(w)
            - np.log(2 * ld(math.pi) * s2) / 2
            - np.square(h * (k[None, :] - a * i[:, None])) / (2 * s2)
        )
        table = (GridSpec.unfold(w_t) if stage.space == "folded" else w_t).astype(ld)
        logp = stage.logp.astype(ld)
        if stage.risk_neutral:
            peak = np.max(log_weight, axis=1, keepdims=True)
            weight = np.exp(log_weight - peak).astype(float).astype(ld)
            per_next = np.einsum("ik,ck->ci", weight, table) / np.sum(weight, axis=1)
            return (np.exp(logp) @ per_next).astype(float)
        log_mass = _logsumexp(log_weight, axis=1)
        per_next = _logsumexp(log_weight + table[:, None, :], axis=2) - log_mass
        per_next[:, log_mass == -np.inf] = -np.inf  # no mass on the grid
        return _logsumexp(logp[:, :, None] + per_next[None, :, :], axis=1).astype(float)

    def assert_close(self, got, want, label):
        assert np.array_equal(np.isnan(got), np.isnan(want)), label
        inf = np.isinf(want)
        assert np.array_equal(got[inf], want[inf]), label
        fin = np.isfinite(want)
        assert np.all(np.isfinite(got[fin])), label
        bound = self.ULPS * np.finfo(float).eps * np.maximum(1.0, np.abs(want[fin]))
        assert np.all(np.abs(got[fin] - want[fin]) <= bound), label

    def tables(self, nodes):
        quadratic = np.stack([0.04 * nodes**2, 0.3 + 0.05 * nodes**2 - 0.2 * np.tanh(nodes)])
        neg_inf = quadratic.copy()
        neg_inf[0, np.abs(nodes) <= 3.0] = -np.inf
        neg_inf[1, (2.0 <= np.abs(nodes)) & (np.abs(nodes) <= 6.0)] = -np.inf
        pos_inf = quadratic.copy()
        pos_inf[1, len(nodes) // 3] = np.inf
        flat = np.stack([np.zeros(len(nodes)), np.full(len(nodes), 0.7)])
        return {"quadratic": quadratic, "-inf": neg_inf, "+inf": pos_inf, "flat": flat}

    @pytest.mark.parametrize("p01", [0.3, 0.0])
    @pytest.mark.parametrize("risk_neutral", [False, True], ids=["log", "risk-neutral"])
    @pytest.mark.parametrize("space", ["original", "folded"])
    def test_integrate_matches_log_sum_exp(self, space, risk_neutral, p01):
        stage = _BellmanStage(mk(p01=p01), self.GRID, TRAPEZOID, space, True, risk_neutral)
        for name, w_t in self.tables(stage.nodes).items():
            with np.errstate(all="ignore"):
                got = stage._integrate(w_t)
                want = self.reference(stage, w_t)
            assert got.shape == want.shape == (2, len(stage.nodes))
            self.assert_close(got, want, name)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.one_of(st.just(0.0), st.floats(-1.3, 1.3)),
        log_sigma2=st.floats(-2.0, 3.0),
        space=st.sampled_from(["original", "folded"]),
        risk_neutral=st.booleans(),
    )
    def test_integrate_matches_log_sum_exp_over_models(self, a, log_sigma2, space, risk_neutral):
        p = mk(a=a, sigma2=math.exp(log_sigma2))
        stage = _BellmanStage(p, self.GRID, TRAPEZOID, space, True, risk_neutral)
        for name, w_t in self.tables(stage.nodes).items():
            with np.errstate(all="ignore"):
                got = stage._integrate(w_t)
                want = self.reference(stage, w_t)
            self.assert_close(got, want, name)

    @pytest.mark.parametrize("space", ["original", "folded"])
    def test_underflowing_product_falls_back_per_row(self, space, monkeypatch):
        # sigma = 0.2: the only finite entry, at delta = 9.5, sits 47.5 sigma
        # or more from the centers at and left of 0, so their product
        # underflows to 0, while centers near 9 see it closely
        stage = _BellmanStage(mk(sigma2=0.04), self.GRID, TRAPEZOID, space, True)
        w_t = np.full((2, len(stage.nodes)), -np.inf)
        w_t[:, np.flatnonzero(np.isclose(stage.nodes, 9.5))] = 1.0
        g, _, col = stage.stencil
        # the product reads the full grid's table, a folded one mirrored
        u = (GridSpec.unfold(w_t) if space == "folded" else w_t) + col[0]
        prod = stage._product(g, np.exp(u - u.max(axis=1, keepdims=True)))
        under = ~np.all(prod >= _PRODUCT_FLOOR, axis=0)
        zero = np.flatnonzero(stage.nodes == 0.0)[0]
        assert under[0] and under[zero] and not under[-1]
        redone = []
        rows = stage._rows
        monkeypatch.setattr(stage, "_rows", lambda w, r: redone.extend(r) or rows(w, r))
        got = stage._integrate(w_t)
        assert redone == list(np.flatnonzero(under))
        want = self.reference(stage, w_t)
        assert np.all(np.isfinite(want))
        self.assert_close(got, want, space)

    @pytest.mark.parametrize("space", ["original", "folded"])
    @pytest.mark.parametrize("a", [0.5, -0.75, 0.9, 1.2])
    def test_flat_table_integrates_to_zero(self, a, space):
        # each kernel row is scaled to mass 1 by the very sum a flat table's
        # stage takes, so W_0 = 0 integrates to 0 to the bit on every row,
        # in the product and in the row path alike; every node then reads
        # the zero node's channel mix, so where delta^2 = lambda the two
        # actions tie at j = 1, and the tie idles
        p = mk(a=a, horizon=1)
        stage = _BellmanStage(p, GridSpec(12.0, 481), TRAPEZOID, space, True)
        rows = np.arange(len(stage.nodes))
        assert np.all(stage._trapezoid(np.zeros((2, len(stage.nodes)))) == 0.0)
        # the guard reads the full grid's table
        assert np.all(stage._rows(np.zeros((2, stage.grid.n_points)), rows) == 0.0)
        if a != 0.9:
            return
        # lambda enters only the price, so one stage serves every lambda
        for i in np.flatnonzero(stage.nodes):
            stage.params = dataclasses.replace(p, lam=stage.z[i])
            _, policy = _iterate(stage, None)
            assert policy.q_margin[1, 1, i] == 0.0 and policy.u_star[1, 1, i] == 0

    def test_thin_risk_neutral_rows_fall_back(self, monkeypatch):
        # a = 1.3 on a wide grid: log D_c rises by about 690 towards the
        # edge, so the rows near 0 keep their mass in terms far below the
        # shared scale; the risk-neutral stencil marks them NaN, and the
        # stage redoes exactly those rows from their log-weights
        p = mk(a=1.3, sigma2=0.135)
        stage = _BellmanStage(p, GridSpec(25.0, 501), TRAPEZOID, "folded", True, True)
        thin = np.flatnonzero(np.isnan(stage.stencil[1]))
        assert 0 in thin and len(thin) < len(stage.nodes) // 2
        redone = []
        rows = stage._rows
        monkeypatch.setattr(stage, "_rows", lambda w, r: redone.extend(r) or rows(w, r))
        w_t = self.tables(stage.nodes)["quadratic"]
        got = stage._integrate(w_t)
        assert redone == list(thin)
        self.assert_close(got, self.reference(stage, w_t), "thin")

@pytest.mark.parametrize(
    "quad,mib",
    [(HERMITE, 7), (TRAPEZOID, 3)],
    ids=["hermite", "trapezoid"],
)
def test_solve_fine_peak_allocation(quad, mib):
    # the solve-fine benchmark solve (T = 20, n_points = 4001, folded).
    # Hermite: its tables and stencil take 2.9 MiB (4.5 MiB while hi was
    # stored as int64), and the whole-grid stage's gathers took 5 MiB more,
    # a 10.3 MiB peak.  Trapezoid: the dense (2001, 2001) kernel made the
    # peak 32.3 MiB.
    p = mk(a=0.8, gamma=0.02, horizon=20)
    grid = GridSpec(auto_delta_max(p, quad), 4001)
    tracemalloc.start()
    try:
        value_iterate(p, grid, quad, space="folded")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20


class TestTrapezoidEdges:
    """The product stage on instances at the edges of what it must survive."""

    BOUNDARY = dict(a=0.0, sigma2=87.6, lam=41.5, gamma=0.00569, horizon=2)

    @pytest.mark.parametrize("n,tol", [(401, 2.0e-4), (1601, 3.2e-5)])
    def test_boundary_two_stage_value(self, n, tol):
        # 2 sigma2 beta* = 0.9969 and the kernel spans e^-6780 of the grid;
        # tol is the log-sum-exp stage's error (1.97e-4, 3.17e-5 at c = 1).
        # W_2(0, c) = log sum_c+ P[c][c+] E[exp(W_1(w, c+))], w ~ N(0, s2),
        # with W_1(x, 0) = gamma x^2 and W_1(x, 1) = gamma min(x^2, lam).
        p = mk(**self.BOUNDARY)
        k = 1.0 - 2.0 * p.sigma2 * p.gamma
        r = math.sqrt(p.lam / p.sigma2)
        e_min = k**-0.5 * (2.0 * ndtr(r * math.sqrt(k)) - 1.0) + math.exp(p.gamma * p.lam) * 2.0 * ndtr(-r)
        exact = np.log(p.channel_matrix() @ np.array([k**-0.5, e_min]))
        assert_allclose(exact, [2.557185, 1.508977], atol=5e-7)
        grid = GridSpec(auto_delta_max(p, TRAPEZOID), n)
        table, _ = value_iterate(p, grid, TRAPEZOID, space="folded")
        assert np.max(np.abs(table.w[2, :, 0] - exact)) <= tol

    @pytest.mark.parametrize("n", [401, 1601])
    def test_unstable_source_solves_to_a_threshold_policy(self, n):
        # a = 1.2: the drift centers a * delta of the edge rows leave the
        # grid, and each row, scaled to mass 1 on the grid, still gives a
        # table nondecreasing in delta and an up-set of transmitting nodes
        p = mk(a=1.2, gamma=0.01, horizon=5)
        grid = GridSpec(auto_delta_max(p, TRAPEZOID), n)
        table, policy = value_iterate(p, grid, TRAPEZOID, space="folded")
        extract_thresholds(policy, grid)
        w = table.w
        assert np.all(np.diff(w, axis=2) >= -1e-9 * np.maximum(1.0, np.abs(w[..., 1:])))

    @pytest.mark.parametrize("a", [1e200, 1e305])
    @pytest.mark.parametrize("space", ["original", "folded"])
    def test_kernel_off_the_grid_is_infeasible(self, space, a):
        # every drift center but delta = 0 lies off the grid, so those rows
        # have no mass on it.  At a = 1e200 every row sum of the factored
        # kernel underflows (row is NaN), and at a = 1e305 its log factors
        # overflow (no stencil): either way every row takes the log-sum-exp
        # row path, whose row at delta = 0 keeps its mass
        p = mk(a=a, horizon=1)
        grid = GridSpec(auto_delta_max(p, TRAPEZOID), 201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stage = _BellmanStage(p, grid, TRAPEZOID, space, True)
            assert stage.stencil is None or np.isnan(stage.stencil[1][0]).all()
            off = np.flatnonzero(stage.nodes)
            flat = np.zeros((1, grid.n_points))  # the guard reads the full grid
            assert np.all(stage._rows(flat, off) == -np.inf)
            assert stage._rows(flat, np.array([stage.zero])) == 0.0
            q0, q1 = stage.q_values(np.zeros((2, len(stage.nodes))))
            assert not np.isnan(q0).any() and not np.isnan(q1).any()
            with pytest.raises(InfeasibleModelError) as err:
                value_iterate(p, grid, TRAPEZOID, space=space)
        assert err.value.stage == 1


class TestTrapezoidStructure:
    """The paper's structural results under the folded trapezoid rule, over
    the random model family: a threshold policy, tables nondecreasing in
    delta, and no transmission on the bad channel or with no stage to go."""

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(-1.3, 1.3),
        log_sigma2=st.floats(-2.0, 3.0),
        log_lam=st.floats(-2.0, 4.0),
        log_gamma=st.floats(-6.0, 0.0),
        horizon=st.integers(1, 7),
        p01=st.floats(0.05, 0.95),
        p10=st.floats(0.05, 0.95),
    )
    def test_threshold_policy_on_auto_grid(
        self, a, log_sigma2, log_lam, log_gamma, horizon, p01, p10
    ):
        p = ModelParams(
            a=a,
            sigma2=math.exp(log_sigma2),
            lam=math.exp(log_lam),
            gamma=math.exp(log_gamma),
            horizon=horizon,
            p01=p01,
            p10=p10,
        )
        assume(check_feasibility(p).feasible)
        grid = GridSpec(auto_delta_max(p, TRAPEZOID), 401)
        table, policy = value_iterate(p, grid, TRAPEZOID, space="folded")
        extract_thresholds(policy, grid)
        w = table.w
        assert np.all(np.diff(w, axis=2) >= -1e-9 * np.maximum(1.0, np.abs(w[..., 1:])))
        assert not policy.u_star[:, 0].any() and not policy.u_star[0].any()


def _log_interval(mu, s, r):
    """log P(|X| < r) for X ~ N(mu, s^2), from erfc on the far side of mu,
    so a small probability keeps its relative precision."""
    mu, k = abs(mu), s * math.sqrt(2.0)
    if mu >= r:
        prob = 0.5 * (math.erfc((mu - r) / k) - math.erfc((mu + r) / k))
    else:
        prob = 1.0 - 0.5 * (math.erfc((mu + r) / k) + math.erfc((r - mu) / k))
    return math.log(prob) if prob > 0.0 else -math.inf


def _log_add(*terms):
    peak = max(terms)
    if peak == -math.inf:
        return peak
    return peak + math.log(sum(math.exp(t - peak) for t in terms))


def w2_closed_form(params, delta, c):
    """W_2(delta, c) of a T >= 2 model, from Gaussian identities alone.

    W_1 is gamma min(x^2, lam) on the good channel and gamma x^2 on the bad
    one.  For x ~ N(m, sigma2) and d = 1 - 2 sigma2 gamma, E exp(gamma x^2)
    = d^-1/2 exp(gamma m^2 / d), and E exp(gamma min(x^2, lam)) is that
    times the probability of |X| < sqrt(lam) under the tilted law N(m / d,
    sigma2 / d), plus e^(gamma lam) times the untilted mass past
    +-sqrt(lam).  Each expectation is taken as a log, so none overflows.
    """
    g, s2, lam = params.gamma, params.sigma2, params.lam
    d, r = 1.0 - 2.0 * s2 * g, math.sqrt(lam)
    with np.errstate(divide="ignore"):
        log_p = np.log(params.channel_matrix())

    def drift(m, c):
        log_bad = -0.5 * math.log(d) + g * m * m / d
        k = math.sqrt(2.0 * s2)
        tail = 0.5 * (math.erfc((r - m) / k) + math.erfc((r + m) / k))
        log_tail = math.log(tail) if tail > 0.0 else -math.inf
        log_good = _log_add(log_bad + _log_interval(m / d, math.sqrt(s2 / d), r), g * lam + log_tail)
        return _log_add(log_p[c, 0] + log_bad, log_p[c, 1] + log_good)

    q0 = g * delta * delta + drift(params.a * delta, c)
    q1 = g * lam + (drift(0.0, 1) if c == 1 else q0)
    return min(q0, q1)


class TestEveryNodeReferee:
    """W_2 at every node of the auto grid against w2_closed_form, over the
    random family's ranges at T = 2 with 2 sigma2 gamma < 0.9.

    The trapezoid rule is gated at |delta| <= R / 4, R = delta_max; farther
    out each kernel row is scaled to mass 1 on the grid, which moves W, and
    Hermite carries the kink at sqrt(lambda).  Those errors are printed,
    not gated.
    """

    @staticmethod
    def models(n=60):
        rng = np.random.default_rng(7)
        out = []
        while len(out) < n:
            p = ModelParams(
                a=rng.uniform(-1.3, 1.3),
                sigma2=math.exp(rng.uniform(-2.0, 3.0)),
                lam=math.exp(rng.uniform(-2.0, 4.0)),
                gamma=math.exp(rng.uniform(-6.0, 0.0)),
                horizon=2,
                p01=rng.uniform(0.05, 0.95),
                p10=rng.uniform(0.05, 0.95),
            )
            if check_feasibility(p).feasible and 2.0 * p.sigma2 * p.gamma < 0.9:
                out.append(p)
        return out

    def test_closed_form_matches_quadrature(self):
        # each expectation of W_1 integrated by scipy, split at +-sqrt(lam)
        for p in self.models(4):
            P, r, sd = p.channel_matrix(), math.sqrt(p.lam), math.sqrt(p.sigma2)

            def drift(m, c):
                def expect(w1):
                    f = lambda x: math.exp(w1(x)) * norm.pdf(x, m, sd)  # noqa: E731
                    return quad(f, m - 40 * sd, m + 40 * sd, points=[-r, r], epsrel=1e-13, limit=200)[0]

                e_bad = expect(lambda x: p.gamma * x * x)
                e_good = expect(lambda x: p.gamma * min(x * x, p.lam))
                return math.log(P[c, 0] * e_bad + P[c, 1] * e_good)

            for delta in (0.0, 0.7 * r, -2.0 * r):
                for c in (0, 1):
                    q0 = p.gamma * delta**2 + drift(p.a * delta, c)
                    q1 = p.gamma * p.lam + (drift(0.0, 1) if c == 1 else q0)
                    want = min(q0, q1)
                    got = w2_closed_form(p, delta, c)
                    assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_trapezoid_inner_quarter(self):
        # worst error per rule and band of |delta| / R: 0, (0, 1/4], (1/4,
        # 1/2], (1/2, 1]
        worst = {}
        for p in self.models():
            for rule in (TRAPEZOID, HERMITE):
                radius = auto_delta_max(p, rule)
                grid = GridSpec(radius, 401)
                for space in ("original", "folded") if rule is TRAPEZOID else ("folded",):
                    table, _ = value_iterate(p, grid, rule, space=space)
                    for i, x in enumerate(grid.nodes_for(space)):
                        band = int(np.searchsorted([0.0, 0.25, 0.5], abs(x) / radius))
                        for c in (0, 1):
                            want = w2_closed_form(p, float(x), c)
                            err = abs(table.w[2, c, i] - want) / max(1.0, abs(want))
                            key = (rule.rule, band)
                            worst[key] = max(worst.get(key, 0.0), err)
        trap = [worst[TRAPEZOID.rule, b] for b in range(4)]
        herm = [worst[HERMITE.rule, b] for b in range(4)]
        print(
            f"W_2 error / max(1, |W|): trapezoid |delta| <= R/4 {max(trap[:2]):.3g} (gated),"
            f" <= R/2 {max(trap[:3]):.3g}, outer half {trap[3]:.3g}; Hermite delta = 0"
            f" {herm[0]:.3g}, <= R/2 {max(herm[:3]):.3g}, outer half {herm[3]:.3g}"
        )
        # 2.5 times the measured 4.4e-5
        assert max(trap[:2]) <= 1.1e-4


class TestExactTie:
    """At a = 0 every node's idle expectation is the delivery's, so where
    delta^2 = lambda on a node the two actions cost the same to the bit,
    and the tie idles."""

    @pytest.mark.parametrize("risk_neutral", [False, True], ids=["log", "risk-neutral"])
    @pytest.mark.parametrize("space", ["original", "folded"])
    @pytest.mark.parametrize("quad", [HERMITE, TRAPEZOID], ids=["hermite", "trapezoid"])
    def test_node_at_lambda_ties_idle(self, quad, space, risk_neutral):
        p = mk(a=0.0, horizon=5)
        grid = GridSpec(4.0, 81)
        nodes = grid.nodes_for(space)
        (i,) = np.flatnonzero(nodes == 1.0)
        assert nodes[i] ** 2 == p.lam
        if risk_neutral:
            _, policy = risk_neutral_value_iterate(p, grid, quad, space)
        else:
            _, policy = value_iterate(p, grid, quad, space)
        assert np.all(policy.q_margin[1:, 1, i] == 0.0), policy.q_margin[1:, 1, i]
        assert np.all(policy.u_star[1:, 1, i] == 0)


class TestQuadratureRules:
    def test_forced_idle_matches_closed_form_hermite(self):
        p = mk(gamma=0.05, horizon=4)
        grid = GridSpec(auto_delta_max(p, HERMITE), 201)
        table, _ = value_iterate(p, grid, HERMITE, force_u=0)
        nodes = grid.nodes()
        for t in range(p.horizon + 1):
            ref = closed_form_never_transmit(p, nodes, 0, t)
            assert np.max(np.abs(table.w[t] - ref[None, :])) < 1e-8

    def test_forced_idle_matches_closed_form_trapezoid(self):
        # the trapezoid rule truncates at the grid edge, so give it a grid
        # that covers the tilted mass and compare on the inner half
        p = mk(gamma=0.02, horizon=2)
        grid = GridSpec(12.0, 481)
        table, _ = value_iterate(p, grid, TRAPEZOID, force_u=0)
        mid = grid.n_points // 2
        k = int(4.0 / grid.spacing)
        inner = slice(mid - k, mid + k + 1)
        nodes = grid.nodes()[inner]
        for t in range(p.horizon + 1):
            ref = closed_form_never_transmit(p, nodes, 0, t)
            assert np.max(np.abs(table.w[t][:, inner] - ref[None, :])) < 1e-8

    def test_rules_agree_on_optimal_solve(self):
        p = mk(gamma=0.02, horizon=2)
        grid = GridSpec(12.0, 481)
        th, ph = value_iterate(p, grid, HERMITE)
        tt, pt = value_iterate(p, grid, TRAPEZOID)
        mid = grid.n_points // 2
        k = int(2.0 / grid.spacing)
        inner = slice(mid - k, mid + k + 1)
        # Hermite handles the policy kink at O(1/n_nodes); 1e-3 covers the
        # observed ~2e-4 defect at 64 nodes with margin
        assert np.max(np.abs(th.w[:, :, inner] - tt.w[:, :, inner])) < 1e-3
        assert np.array_equal(ph.u_star[:, :, inner], pt.u_star[:, :, inner])

    def test_hermite_kink_error_shrinks_with_nodes(self):
        # the t=2 integrand carries the stage-1 policy kink; Gauss-Hermite
        # error on it must decrease as nodes are added (trapezoid on a fine
        # covering grid serves as reference)
        p = mk(gamma=0.02, horizon=2)
        grid = GridSpec(12.0, 961)
        table, _ = value_iterate(p, grid, HERMITE)
        mid = grid.n_points // 2
        k = int(2.0 / grid.spacing)
        inner = slice(mid - k, mid + k + 1)

        def q_idle_good(quad):
            q0, _ = _BellmanStage(p, grid, quad, "original", True).q_values(table.w[1])
            return q0[1]

        ref = q_idle_good(TRAPEZOID)
        errs = []
        for n_gh in (16, 64):
            q = q_idle_good(QuadratureSpec(n_nodes=n_gh))
            errs.append(np.max(np.abs(q - ref)[inner]))
        assert errs[1] < errs[0]


@pytest.fixture(scope="module")
def solved():
    p = mk(gamma=0.05, horizon=3)
    grid = GridSpec(auto_delta_max(p, HERMITE), 161)
    return p, grid, value_iterate(p, grid, HERMITE)


class TestTableInvariants:
    def test_even_in_delta(self, solved):
        _, _, (table, pol) = solved
        assert np.max(np.abs(table.w - table.w[:, :, ::-1])) <= 1e-12
        assert np.array_equal(pol.u_star, pol.u_star[:, :, ::-1])

    def test_folded_matches_original_on_shared_nodes(self, solved):
        p, grid, (table, pol) = solved
        ftable, fpol = value_iterate(p, grid, HERMITE, space="folded")
        mid = grid.n_points // 2
        assert np.max(np.abs(table.w[:, :, mid:] - ftable.w)) <= 1e-8
        tie = np.abs(pol.q_margin[:, :, mid:]) <= 1e-9
        agree = pol.u_star[:, :, mid:] == fpol.u_star
        assert np.all(agree | tie)

    def test_monotone_along_folded_grid(self, solved):
        p, grid, _ = solved
        ftable, _ = value_iterate(p, grid, HERMITE, space="folded")
        assert np.all(np.diff(ftable.w, axis=2) >= -1e-12)

    def test_monotone_in_stages_to_go(self, solved):
        _, _, (table, _) = solved
        assert np.all(np.diff(table.w, axis=0) >= -1e-12)

    def test_nonnegative_log_values(self, solved):
        # V_j >= 1 since every stage cost is >= 0 (up to fp dust)
        _, _, (table, _) = solved
        assert table.w.min() >= -1e-12

    def test_policy_table_degenerate_row(self, solved):
        _, _, (_, pol) = solved
        assert np.all(pol.u_star[0] == 0)
        assert np.all(np.isinf(pol.q_margin[0]))
        assert pol.horizon == 3

    def test_force_u_validation(self, solved):
        p, grid, _ = solved
        with pytest.raises(ValueError):
            value_iterate(p, grid, HERMITE, force_u=2)
        with pytest.raises(ValueError):
            value_iterate(p, grid, HERMITE, space="sideways")


class TestNormalization:
    def test_unnormalized_shifts_by_half_log_2pi_sigma2(self):
        p = mk(gamma=0.05, horizon=3, sigma2=1.3)
        grid = GridSpec(8.0, 161)
        tn, pn = value_iterate(p, grid, HERMITE, normalized=True)
        tu, pu = value_iterate(p, grid, HERMITE, normalized=False)
        shift = 0.5 * math.log(2 * math.pi * p.sigma2)
        for j in range(p.horizon + 1):
            assert np.max(np.abs(tu.w[j] - tn.w[j] - j * shift)) <= 1e-10
        tie = np.abs(pn.q_margin) <= 1e-9
        assert np.all((pn.u_star == pu.u_star) | tie)


class TestLogSumExp:
    """The numpy reduction against scipy.special.logsumexp as reference."""

    @pytest.mark.parametrize("axis", [0, 1, 2, (0, 2), (1, 2), (0, 1, 2)])
    def test_matches_scipy_on_finite_input(self, axis):
        a = np.random.default_rng(3).normal(0.0, 30.0, size=(2, 7, 64))
        assert_allclose(_logsumexp(a, axis), logsumexp(a, axis=axis), rtol=1e-13)

    def test_non_finite_entries(self):
        a = np.array(
            [
                [-np.inf, -np.inf, -np.inf],  # all -inf row gives -inf
                [np.inf, 0.0, -np.inf],  # +inf propagates
                [-np.inf, 1.0, 2.0],
                [np.inf, np.inf, 5.0],
            ]
        )
        with np.errstate(invalid="ignore"):
            want = logsumexp(a, axis=1)
        got = _logsumexp(a, axis=1)
        assert np.array_equal(got[:2], [-np.inf, np.inf])
        assert got[3] == np.inf
        assert_allclose(got, want, rtol=1e-13)

    def test_zero_transition_log_channel(self):
        # p01 = 0 puts -inf log-probabilities into the Bellman reduction.
        logp = _BellmanStage(mk(p01=0.0), GridSpec(6.0, 11), HERMITE, "folded", True).logp
        assert np.isneginf(logp[0, 1])
        terms = np.random.default_rng(4).normal(0.0, 5.0, size=(2, 9, 16))
        for c in (0, 1):
            a = logp[c][:, None, None] + terms
            assert_allclose(_logsumexp(a, (0, 2)), logsumexp(a, axis=(0, 2)), rtol=1e-13)

    @pytest.mark.parametrize("dmax", [0.5, 3.0, 8.0, 20.0])
    def test_coverage_tail_matches_ndtr(self, dmax):
        p = mk(gamma=0.05, horizon=5)
        rep = truncation_report(p, GridSpec(dmax, 11), HERMITE)
        want = 2.0 * ndtr(-dmax / rep.tilted_std)
        assert rep.coverage_tail == pytest.approx(want, rel=1e-13, abs=0.0)


class TestAutoGrid:
    def test_floor_and_rounding(self):
        d = auto_delta_max(mk())
        assert d >= 2.0 * mk().sigma
        assert round(d * 10) == pytest.approx(d * 10, abs=1e-9)

    def test_frozen_instance(self):
        # regression anchor for the documented default
        p = mk(gamma=0.05, horizon=5)
        assert auto_delta_max(p, HERMITE) == 8.0

    def test_raises_on_infeasible(self):
        with pytest.raises(InfeasibleModelError):
            auto_delta_max(mk(gamma=0.6))

    def test_radius_where_the_hermite_cap_binds(self):
        p = mk(gamma=0.05, horizon=5)
        assert auto_delta_max(p, HERMITE) == 8.0
        assert auto_delta_max(p, TRAPEZOID) == 17.9  # the 6.5-sigma coverage radius
        assert truncation_report(p, GridSpec(8.0, 401), HERMITE).gh_cap_active
        assert not truncation_report(p, GridSpec(17.9, 401), TRAPEZOID).gh_cap_active
        # the defaults are QuadratureSpec()'s
        grid = GridSpec(8.0, 401)
        assert auto_delta_max(p) == auto_delta_max(p, QuadratureSpec())
        assert truncation_report(p, grid) == truncation_report(p, grid, QuadratureSpec())

    def test_underflowing_gain_leaves_the_radius_uncapped(self):
        # sqrt(2) sigma beta* |a| underflows to 0, the cap's a = 0 case
        p = mk(a=1e-300, gamma=1e-300, horizon=2)
        assert auto_delta_max(p, HERMITE) == auto_delta_max(p, TRAPEZOID) == 6.5
        assert not truncation_report(p, GridSpec(6.5, 11), HERMITE).gh_cap_active

    def test_truncation_report_ok_on_auto_grid(self):
        p = mk(gamma=0.05, horizon=5)
        grid = GridSpec(auto_delta_max(p, HERMITE), 401)
        rep = truncation_report(p, grid, HERMITE)
        assert rep.tilted_std > 0
        assert rep.delta_max == grid.delta_max

    def test_truncation_report_flags_tight_grid(self):
        p = mk(gamma=0.05, horizon=5)
        rep = truncation_report(p, GridSpec(1.0, 11), HERMITE)
        # the tilted visit law (std 2.75) leaves most of its mass beyond 1.0
        assert rep.coverage_tail > 1e-10


class TestRiskNeutral:
    def test_one_stage_hand_values(self):
        p = mk(horizon=1, lam=1.2)
        grid = GridSpec(4.0, 81)
        table, pol = risk_neutral_value_iterate(p, grid, HERMITE)
        z = np.square(grid.nodes())
        assert_allclose(table.v[1, 0], z, atol=1e-12)
        assert_allclose(table.v[1, 1], np.minimum(z, p.lam), atol=1e-12)
        assert np.all(pol.u_star[1, 0] == 0)

    def test_small_gamma_limit_direction(self):
        # (1/gamma) * W approaches the risk-neutral table as gamma drops
        base = dict(a=0.9, sigma2=1.0, lam=1.0, horizon=2, p01=0.3, p10=0.2)
        grid = GridSpec(8.0, 161)
        rn, _ = risk_neutral_value_iterate(ModelParams(gamma=0.1, **base), grid, HERMITE, space="folded")
        d = []
        for gamma in (0.1, 0.05):
            table, _ = value_iterate(ModelParams(gamma=gamma, **base), grid, HERMITE, space="folded")
            d.append(np.max(np.abs(table.w[2] / gamma - rn.v[2])))
        assert d[1] < d[0]

    @pytest.mark.parametrize(
        "quad,tol", [(HERMITE, 1e-2), (TRAPEZOID, 1e-5)], ids=["hermite", "trapezoid"]
    )
    def test_two_stage_value_at_zero_both_spaces(self, quad, tol):
        # V_2(0, c) = P[c][0] * E[w^2] + P[c][1] * E[min(w^2, lam)] with
        # w ~ N(0, sigma2): one idle step from 0, then the one-stage values.
        # Hermite carries the kink at sqrt(lam) (7.1e-3 measured); the
        # trapezoid rule gives 4.3e-6.
        p = mk(horizon=2)
        grid = GridSpec(auto_delta_max(p), 401)
        orig, opol = risk_neutral_value_iterate(p, grid, quad)
        fold, fpol = risk_neutral_value_iterate(p, grid, quad, space="folded")
        mid = grid.n_points // 2
        assert_allclose(fold.v, orig.v[:, :, mid:], rtol=0, atol=1e-12)
        assert np.array_equal(fpol.u_star, opol.u_star[:, :, mid:])
        r = math.sqrt(p.lam) / p.sigma
        e_min = p.sigma2 * (2 * ndtr(r) - 1 - 2 * r * norm.pdf(r)) + p.lam * 2 * ndtr(-r)
        P = p.channel_matrix()
        exact = P[:, 0] * p.sigma2 + P[:, 1] * e_min
        assert_allclose(orig.v[2, :, mid], exact, rtol=0, atol=tol)
        assert_allclose(fold.v[2, :, 0], exact, rtol=0, atol=tol)

    @pytest.mark.parametrize("quad", [HERMITE, TRAPEZOID], ids=["hermite", "trapezoid"])
    @pytest.mark.parametrize("space", ["original", "folded"])
    def test_table_past_the_float_range_warns_of_nothing(self, quad, space):
        # the outer nodes' delta^2 is 1.69e308, and the second stage adds a
        # drift of that size to it: the additive table overflows, where the
        # log-domain one, scaled by gamma, stays finite
        p = mk(horizon=2)
        grid = GridSpec(1.3e154, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleModelError, match="value table overflowed at stage 2") as err:
                risk_neutral_value_iterate(p, grid, quad, space)
            table, _ = value_iterate(p, grid, quad, space)
        assert err.value.stage == 2
        assert np.all(np.isfinite(table.w))

    @pytest.mark.parametrize("space", ["original", "folded"])
    def test_kernel_narrower_than_a_grid_step(self, space):
        # delta_max = 1e6 on 401 points: a step is 5000 sigma, so every row
        # takes the guard's path, and a row whose center lies between nodes
        # has log-weights far below the float range, which must not all
        # underflow to 0 / 0
        p = mk()
        grid = GridSpec(1e6, 401)
        stage = _BellmanStage(p, grid, TRAPEZOID, space, True, risk_neutral=True)
        rows = np.arange(len(stage.nodes))
        assert np.all(stage._rows(np.zeros((2, grid.n_points)), rows) == 0.0)
        table, _ = risk_neutral_value_iterate(p, grid, TRAPEZOID, space)
        assert np.all(np.isfinite(table.v))
        # from delta = 0 the noise snaps to the zero node, whose cost is 0
        assert np.all(table.v[:, :, stage.zero] == 0.0)
