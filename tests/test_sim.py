"""Monte Carlo layer: reproducibility, hand-checkable traces, estimator
anchors, and the heavy-tail diagnostic."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from risksched import (
    ModelParams,
    ThresholdSchedule,
    always_transmit_policy,
    estimate_risk_objective,
    idle_policy,
    rollout,
    stage_cost,
    threshold_policy,
)
from risksched import sim
from risksched.sim import CHUNK_SIZE
from risksched.solver import _logsumexp


def mk(**kw):
    base = dict(a=0.9, sigma2=1.0, lam=1.0, gamma=0.05, horizon=3, p01=0.3, p10=0.2)
    base.update(kw)
    return ModelParams(**base)


class TestRollout:
    def test_reproducible_by_seed(self):
        p = mk()
        a = rollout(p, idle_policy(), seed=42)
        b = rollout(p, idle_policy(), seed=42)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(a.stage_cost, b.stage_cost)
        c = rollout(p, idle_policy(), seed=43)
        assert not np.array_equal(a.x, c.x)

    def test_row_count_and_start(self):
        p = mk(horizon=5)
        tr = rollout(p, idle_policy(), seed=0, delta0=1.25)
        assert len(tr.t) == 5
        assert tr.delta[0] == 1.25

    def test_error_definition_holds_along_trace(self):
        p = mk()
        tr = rollout(p, always_transmit_policy(), seed=7, delta0=0.5)
        # delta(t) = x(t) - a * x_hat(t-1) for every recorded stage
        assert_allclose(tr.delta[1:], tr.x[1:] - p.a * tr.x_hat[:-1], atol=1e-12)

    def test_costs_match_stage_cost(self):
        p = mk()
        tr = rollout(p, always_transmit_policy(), seed=3)
        assert np.array_equal(tr.stage_cost, stage_cost(tr.delta, tr.c, tr.u, p))

    def test_pinned_noise_always_transmit(self):
        # frozen good channel and delivered transmissions: delta is just the
        # previous noise, each stage costs exactly lam
        p = mk(a=0.5, lam=1.3, horizon=3, p01=0.0, p10=0.0)
        w = np.array([1.0, -0.5, 2.0])
        tr = rollout(p, always_transmit_policy(), seed=0, delta0=0.7, c0=1, noise=w)
        assert_allclose(tr.delta, [0.7, 1.0, -0.5], rtol=0, atol=0)
        assert_allclose(tr.u, [1, 1, 1])
        assert_allclose(tr.c, [1, 1, 1])
        assert_allclose(tr.stage_cost, [1.3, 1.3, 1.3], rtol=0, atol=0)

    def test_pinned_noise_idle(self):
        p = mk(a=0.5, horizon=3, p01=0.0, p10=0.0)
        w = np.array([1.0, -0.5, 2.0])
        tr = rollout(p, idle_policy(), seed=0, delta0=0.7, c0=1, noise=w)
        d1 = 0.5 * 0.7 + 1.0
        d2 = 0.5 * d1 - 0.5
        assert_allclose(tr.delta, [0.7, d1, d2], rtol=1e-15)
        assert_allclose(tr.stage_cost, np.square([0.7, d1, d2]), rtol=1e-15)

    def test_noise_shape_validated(self):
        with pytest.raises(ValueError):
            rollout(mk(horizon=3), idle_policy(), seed=0, noise=np.zeros(2))

    def test_zero_gain_pins_initial_state(self):
        tr = rollout(mk(a=0.0), idle_policy(), seed=5, delta0=2.5)
        assert tr.x[0] == 2.5
        assert tr.delta[0] == 2.5

    def test_c0_pinning(self):
        assert rollout(mk(), idle_policy(), seed=1, c0=0).c[0] == 0
        assert rollout(mk(), idle_policy(), seed=1, c0=1).c[0] == 1


class TestRiskEstimate:
    def test_degenerate_cost_is_exact(self):
        # T=1 from delta0=0: every transmit attempt costs exactly lam,
        # delivered or not, so the estimate collapses to gamma*lam with se 0
        p = mk(horizon=1, lam=1.4, gamma=0.1)
        est = estimate_risk_objective(p, always_transmit_policy(), 4096, seed=0)
        assert est.log_estimate == pytest.approx(p.gamma * p.lam, rel=1e-13)
        assert est.se_log == 0.0
        assert est.n == 4096
        assert est.tail_ok
        assert est.tail_share == pytest.approx(4 / 4096, rel=1e-12)

    def test_idle_two_stage_matches_closed_form(self):
        # total cost is w0^2; E[exp(g*w0^2)] = (1 - 2*g*s2)^(-1/2)
        p = mk(horizon=2, gamma=0.1)
        anchor = -0.5 * math.log(1.0 - 2.0 * p.gamma * p.sigma2)
        est = estimate_risk_objective(p, idle_policy(), 1 << 17, seed=11)
        assert est.se_log > 0
        assert abs(est.log_estimate - anchor) <= 4.0 * est.se_log
        assert est.tail_ok

    def test_chunked_run_is_deterministic(self):
        p = mk(horizon=2)
        n = CHUNK_SIZE + 7  # force a chunk boundary
        a = estimate_risk_objective(p, idle_policy(), n, seed=9)
        b = estimate_risk_objective(p, idle_policy(), n, seed=9)
        assert a == b

    def test_tail_domination_warns(self):
        # gamma so large the population mean diverges: the sample mean is
        # carried by a handful of extreme draws and must be flagged
        p = mk(horizon=3, gamma=0.3)
        with pytest.warns(RuntimeWarning, match="tail-dominated"):
            est = estimate_risk_objective(p, idle_policy(), 1 << 14, seed=2)
        assert not est.tail_ok

    @pytest.mark.parametrize("n,seed", [(1, 2), (999, 26)])
    def test_small_runs_are_not_judged(self, n, seed):
        # below 1000 rollouts the top 0.1% is less than one sample: its share
        # (here above one half) is reported, but the tail is not judged
        p = mk(horizon=3, gamma=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_risk_objective(p, idle_policy(), n, seed=seed)
        assert est.tail_ok
        assert est.tail_share > 0.5
        if n == 1:
            assert est.tail_share == 1.0

    def test_tail_is_judged_from_1000_rollouts(self):
        # one sample of this heavy-tail run carries 94% of the mean
        p = mk(horizon=3, gamma=0.3)
        with pytest.warns(RuntimeWarning, match="tail-dominated"):
            est = estimate_risk_objective(p, idle_policy(), 1000, seed=4)
        assert not est.tail_ok
        assert est.tail_share > 0.9

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            estimate_risk_objective(mk(), idle_policy(), 0, seed=0)


class TestMeanVariance:
    def test_degenerate_cases(self):
        p = mk(horizon=1, lam=1.4)
        est = estimate_risk_objective(p, always_transmit_policy(), 1000, seed=0)
        assert est.mean_cost == pytest.approx(1.4, rel=1e-13)
        assert est.var_cost == pytest.approx(0.0, abs=1e-24)
        est = estimate_risk_objective(p, idle_policy(), 1000, seed=0, delta0=3.0)
        assert est.mean_cost == pytest.approx(9.0, rel=1e-13)
        assert est.var_cost == pytest.approx(0.0, abs=1e-22)

    def test_idle_two_stage_moments(self):
        # cost = w0^2 with w0 ~ N(0, 1): mean 1, variance 2
        p = mk(horizon=2)
        n = 1 << 17
        est = estimate_risk_objective(p, idle_policy(), n, seed=4)
        assert abs(est.mean_cost - 1.0) <= 5.0 * math.sqrt(2.0 / n)
        # var(s^2) ~= (mu4 - var^2)/n with mu4 = E[(w^2-1)^4] = 60
        assert abs(est.var_cost - 2.0) <= 5.0 * math.sqrt((60.0 - 4.0) / n)

    def test_chunk_merge_matches_single_chunk_statistics(self):
        # crossing the chunk boundary must not change determinism
        p = mk(horizon=2)
        a = estimate_risk_objective(p, idle_policy(), CHUNK_SIZE + 5, seed=6)
        b = estimate_risk_objective(p, idle_policy(), CHUNK_SIZE + 5, seed=6)
        assert (a.mean_cost, a.var_cost) == (b.mean_cost, b.var_cost)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            estimate_risk_objective(mk(), idle_policy(), 0, seed=0)


def _two_pass_reference(params, policy, n, seed, delta0, c0):
    """The estimator as two passes over sim._simulate_chunk: one for the risk
    objective with a full sort for the tail, one for Chan-merged moments."""
    gamma = params.gamma
    k_top = max(1, int(sim.TAIL_QUANTILE * n))
    lse1, lse2 = [], []
    top = np.full(0, -np.inf)
    for chunk, m in enumerate(sim._chunk_sizes(n)):
        gs = gamma * sim._simulate_chunk(params, policy, m, sim._generator(seed, chunk), delta0, c0)
        lse1.append(_logsumexp(gs, axis=0))
        lse2.append(_logsumexp(2.0 * gs, axis=0))
        top = np.sort(np.concatenate([top, gs]))[-k_top:]
    lse1_all = float(_logsumexp(np.asarray(lse1), axis=0))
    l1 = lse1_all - math.log(n)
    l2 = float(_logsumexp(np.asarray(lse2), axis=0)) - math.log(n)
    se = math.sqrt(max(math.expm1(l2 - 2.0 * l1), 0.0) / n)
    tail_share = math.exp(float(_logsumexp(top, axis=0)) - lse1_all)

    n_acc, mean_acc, m2_acc = 0, 0.0, 0.0
    for chunk, m in enumerate(sim._chunk_sizes(n)):
        s = sim._simulate_chunk(params, policy, m, sim._generator(seed, chunk), delta0, c0)
        mean_c = float(s.mean())
        m2_c = float(np.square(s - mean_c).sum())
        if n_acc == 0:
            n_acc, mean_acc, m2_acc = m, mean_c, m2_c
        else:
            d = mean_c - mean_acc
            tot = n_acc + m
            m2_acc += m2_c + d * d * n_acc * m / tot
            mean_acc += d * m / tot
            n_acc = tot
    var = m2_acc / (n_acc - 1) if n_acc > 1 else 0.0
    return l1, se, tail_share, mean_acc, var


class TestOnePass:
    @pytest.mark.filterwarnings("ignore:risk estimate is tail-dominated")
    @pytest.mark.parametrize("n", [1, 2, CHUNK_SIZE, CHUNK_SIZE + 7])
    @pytest.mark.parametrize("c0", [None, 1])
    def test_matches_two_pass_reference_bit_for_bit(self, n, c0):
        p = mk(horizon=3)
        policy = threshold_policy(ThresholdSchedule(np.array([[np.inf, np.inf]] + [[np.inf, 1.0]] * 3)))
        est = estimate_risk_objective(p, policy, n, seed=17, delta0=0.75, c0=c0)
        ref = _two_pass_reference(p, policy, n, 17, 0.75, c0)
        got = (est.log_estimate, est.se_log, est.tail_share, est.mean_cost, est.var_cost)
        assert got == ref
        assert est.n == n

    def test_tail_share_sums_the_top_k_in_sorted_order(self):
        # k = 327; in this run the unsorted top-k set sums to a different last bit
        p = mk(horizon=3)
        policy = threshold_policy(ThresholdSchedule(np.array([[np.inf, np.inf]] + [[np.inf, 1.0]] * 3)))
        n = 5 * CHUNK_SIZE + 3
        est = estimate_risk_objective(p, policy, n, seed=1, delta0=0.75)
        assert est.tail_share == _two_pass_reference(p, policy, n, 1, 0.75, None)[2]

    def test_fields_extend_the_tuple(self):
        est = estimate_risk_objective(mk(horizon=1), idle_policy(), 10, seed=0)
        assert est[:5] == (est.log_estimate, est.se_log, est.n, est.tail_share, est.tail_ok)
        assert est[5:] == (est.mean_cost, est.var_cost)


# transmits on either channel, with thresholds that change from stage to stage
THRESHOLD = threshold_policy(
    ThresholdSchedule(np.array([[np.inf, np.inf]] + [[2.5, 0.8], [np.inf, 1.2]] * 3))
)


class TestClosedLoop:
    """rollout and the estimator run one loop, sim._closed_loop."""

    @pytest.mark.parametrize(
        "policy", [idle_policy(), always_transmit_policy(), THRESHOLD], ids=["idle", "always", "threshold"]
    )
    @pytest.mark.parametrize("c0", [None, 0, 1])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_trace_is_a_rollout_of_the_estimators_loop(self, policy, c0, seed):
        p = mk(horizon=6)
        g = sim._generator(seed, 0)
        g.normal(0.0, 1.0)  # x(0): only the trace tracks the source
        total = sim._simulate_chunk(p, policy, 1, g, 0.75, c0)
        trace = rollout(p, policy, seed, delta0=0.75, c0=c0)
        want = 0.0
        for cost in trace.stage_cost.tolist():
            want += cost
        assert total.tolist() == [want]

    def test_batch_rows_match_one_row_runs(self):
        p = mk(horizon=6)
        m = 9
        g = np.random.default_rng(3)
        c = (g.random(m) < 0.6).astype(np.int8)
        w = g.normal(0.0, p.sigma, size=(m, p.horizon))
        u_chan = g.random(size=(m, p.horizon))
        batch = list(sim._closed_loop(p, THRESHOLD, 0.75, c, w, u_chan))
        assert len(batch) == p.horizon
        for r in range(m):
            rows = (c[r : r + 1], w[r : r + 1], u_chan[r : r + 1])
            one = list(sim._closed_loop(p, THRESHOLD, 0.75, *rows))
            assert len(one) == p.horizon
            for stage, one_stage in zip(batch, one):
                for got, want in zip(stage, one_stage):
                    assert got.dtype == want.dtype
                    assert got[r : r + 1].tobytes() == want.tobytes()
