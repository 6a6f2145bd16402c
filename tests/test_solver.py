"""Solver tests: feasibility, closed form vs numeric integration, both
quadrature rules, structural invariants of the value tables."""

import math

import numpy as np
import pytest
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
from risksched.solver import _DRIFT, _RESET, _BellmanStage, _iterate, _log_channel, _logsumexp

HERMITE = QuadratureSpec()
TRAPEZOID = QuadratureSpec(rule="trapezoid-on-grid")


def mk(**kw):
    base = dict(a=0.9, sigma2=1.0, lam=1.0, gamma=0.05, horizon=3, p01=0.3, p10=0.2)
    base.update(kw)
    return ModelParams(**base)


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
        "dmax,n", [(0.0, 11), (-1.0, 11), (math.inf, 11), (math.nan, 11), (2.0, 10), (2.0, 1)]
    )
    def test_rejects_bad_grids(self, dmax, n):
        with pytest.raises(ValueError):
            GridSpec(dmax, n)

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


def stages_with_tables(p, grid, j):
    """(stage, table at j stages to go, transmit price) for both domains."""
    table, _ = value_iterate(p, grid, HERMITE)
    rn, _ = risk_neutral_value_iterate(p, grid, HERMITE)
    return [
        (_BellmanStage(p, grid, HERMITE, "original", True), table.w[j], p.gamma * p.lam),
        (_BellmanStage(p, grid, HERMITE, "original", True, risk_neutral=True), rn.v[j], p.lam),
    ]


class TestQValues:
    def test_bad_channel_transmit_is_idle_plus_price(self):
        p = mk()
        for stage, w, price in stages_with_tables(p, GridSpec(6.0, 121), 2):
            q0, q1 = stage.q_values(w)
            # bitwise: the transmit branch is computed as price + idle branch
            assert np.array_equal(q1[0], price + q0[0])

    def test_good_channel_transmit_is_flat(self):
        p = mk()
        for stage, w, _ in stages_with_tables(p, GridSpec(6.0, 121), 1):
            _, q1 = stage.q_values(w)
            assert np.ptp(q1[1]) == 0.0

    def test_overflow_raises_infeasible(self):
        # gamma * delta^2 overflows at stage 1.  value_iterate refuses this
        # model up front, so the shared recursion is driven directly.
        stage = _BellmanStage(mk(gamma=1e308), GridSpec(6.0, 121), HERMITE, "original", True)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            InfeasibleModelError, match="value table overflowed at stage 1"
        ) as err:
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
        """log E[exp(w(X, c+))] for X ~ N(center, sigma2), (2, len(center)) over c+."""
        d = self.GRID.nodes()
        if quad.rule == TRAPEZOID.rule:
            tw = np.full(len(d), self.GRID.spacing)
            tw[[0, -1]] *= 0.5
            dens = norm.pdf(d[None, :], loc=center[:, None], scale=p.sigma)
            return np.array([logsumexp(w[c][None, :], b=tw * dens, axis=1) for c in (0, 1)])
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

    def half_table(self):
        d = self.GRID.folded_nodes()
        return np.stack([0.04 * d**2 + 0.3 * np.tanh(d), 0.2 + 0.04 * d**2 - 0.5 * np.tanh(d / 2)])

    @pytest.mark.parametrize("risk_neutral", [False, True], ids=["log", "risk-neutral"])
    @pytest.mark.parametrize("quad", [HERMITE, TRAPEZOID], ids=["hermite", "trapezoid"])
    def test_q_values_match_the_right_half(self, quad, risk_neutral):
        p = mk()
        mid = self.GRID.n_points // 2
        w_half = self.half_table()
        folded = _BellmanStage(p, self.GRID, quad, "folded", True, risk_neutral)
        original = _BellmanStage(p, self.GRID, quad, "original", True, risk_neutral)
        for got, want in zip(folded.q_values(w_half), original.q_values(GridSpec.unfold(w_half))):
            assert_allclose(got, want[:, mid:], rtol=0, atol=1e-12)

    def test_folded_trapezoid_kernel_keeps_the_row_mass(self):
        # node m > 0 of the folded kernel carries the weights of +m and -m
        mid = self.GRID.n_points // 2
        folded = _BellmanStage(mk(), self.GRID, TRAPEZOID, "folded", True)
        original = _BellmanStage(mk(), self.GRID, TRAPEZOID, "original", True)
        for branch, rows in ((0, slice(mid, None)), (1, slice(None))):
            got = np.exp(folded.stencil[branch][3]).sum(axis=1)
            want = np.exp(original.stencil[branch][3][rows]).sum(axis=1)
            assert folded.stencil[branch][3].shape[1] == self.GRID.n_folded
            assert_allclose(got, want, rtol=1e-14, atol=0)


class TestHermiteLayout:
    """The abscissa-major Hermite stage reproduces the center-major one bit for bit.

    The reference gathers with a fancy index on the transposed stencil,
    (2, len(centers), n_terms) over c+, and reduces the last axis out of
    place; numpy's sums follow memory order, so a gather that changed it
    would move the reset branch by an ulp.
    """

    GRID = GridSpec(10.0, 201)

    @staticmethod
    def center_major(stage, w_t, branch):
        lo, hi, th, weight = stage.stencil[branch]
        vals = w_t[:, lo.T]
        vals = vals * (1.0 - th.T) + w_t[:, hi.T] * th.T
        if stage.risk_neutral:
            return np.exp(stage.logp) @ np.einsum("ik,cik->ci", weight.T, vals)
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
            for branch in (_DRIFT, _RESET):
                with np.errstate(all="ignore"):
                    got = stage._integrate(w_t, branch)
                    want = self.center_major(stage, w_t, branch)
                assert got.shape == want.shape == (2, len(stage.nodes) if branch == _DRIFT else 1)
                assert np.array_equal(got, want, equal_nan=True), (name, branch)


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
        logp = _log_channel(mk(p01=0.0))
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
