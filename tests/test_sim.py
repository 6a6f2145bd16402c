"""Monte Carlo layer: reproducibility, hand-checkable traces, estimator
anchors, and the heavy-tail diagnostic."""

import math
import threading
import tracemalloc
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
    step_channel,
    step_error,
    threshold_policy,
)
from risksched import sim
from risksched.model import _channel_path
from risksched.sim import CHUNK_SIZE, STEP_ROWS
from risksched.solver import _logsumexp


def mk(**kw):
    base = dict(a=0.9, sigma2=1.0, lam=1.0, gamma=0.05, horizon=3, p01=0.3, p10=0.2)
    base.update(kw)
    return ModelParams(**base)


# the mc-rollouts model, under thresholds that rise with the stages to go
MC_MODEL = ModelParams(a=0.8, sigma2=1.0, lam=1.0, gamma=0.02, horizon=20, p01=0.3, p10=0.2)
MC_POLICY = threshold_policy(
    ThresholdSchedule(np.array([[np.inf, np.inf]] + [[np.inf, 1.0 + 0.05 * j] for j in range(1, 21)]))
)


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

    @pytest.mark.filterwarnings("error")
    def test_subnormal_gain(self):
        # x_hat(-1) = (x(0) - delta0) / a is past the float range at a = 1e-310
        tr = rollout(mk(a=1e-310), idle_policy(), seed=0, delta0=0.5)
        assert np.isinf(tr.x_hat[0])
        assert tr.delta[0] == 0.5

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("policy", [idle_policy(), always_transmit_policy()], ids=["idle", "always"])
    def test_overflowing_costs_raise(self, policy):
        # delta(2) ~ 1e200 * w: its square is inf, and 0 * inf = nan where delivered
        with pytest.raises(FloatingPointError, match="overflow"):
            estimate_risk_objective(mk(a=1e200), policy, 100, seed=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2000, CHUNK_SIZE + 4464], ids=["one-chunk", "two-chunks"])
    def test_spread_past_the_float_range(self, n):
        # sigma2 = 1e200: S ~ 1e200, so the sum of squared deviations is inf,
        # while gamma * S ~ 0.1 keeps the risk objective finite
        est = estimate_risk_objective(mk(sigma2=1e200, gamma=1e-201, horizon=2), idle_policy(), n, seed=0)
        assert est.var_cost == math.inf
        assert math.isfinite(est.log_estimate) and math.isfinite(est.mean_cost)

    def test_pinned_at_twenty_stages(self):
        # the mc-rollouts model over two full chunks and a partial one; the
        # floats were taken from _public_reference_chunk, which steps the
        # channel stage by stage, and _two_pass_reference's merge
        est = estimate_risk_objective(MC_MODEL, MC_POLICY, 2 * CHUNK_SIZE + 3, seed=7)
        assert repr(tuple(est)) == (
            "(0.49853439783891673, 0.0015296947423884214, 131075, 0.011277873223894846, True, "
            "22.360136759753996, 186.19659320175114)"
        )


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
        w = g.normal(0.0, p.sigma, size=(p.horizon, m))  # stage-major
        path = _channel_path(c, g.random(size=(p.horizon, m)), p)

        def stages(path, w):  # copied: the loop overwrites its buffers stage by stage
            return [[np.copy(a) for a in stage] for stage in sim._closed_loop(p, THRESHOLD, 0.75, path, w)]

        batch = stages(path, w)
        assert len(batch) == p.horizon
        for r in range(m):
            one = stages(path[:, r : r + 1], w[:, r : r + 1])
            assert len(one) == p.horizon
            for stage, one_stage in zip(batch, one):
                for got, want in zip(stage, one_stage):
                    assert got.dtype == want.dtype
                    assert got[r : r + 1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("a", [0.9, 1e200])
    def test_stage_is_stage_cost_and_step_error_bit_for_bit(self, a):
        # stage 0 idles from delta0 = -0.0, so delta(1) = a * -0.0 + w[0] =
        # w[0]: signed zeros, |delta| at a threshold (1.5 on c = 0, 2.0 on
        # c = 1), deltas whose a*delta or square overflows, and inf and NaN,
        # each on both channels, so transmissions are delivered and lost
        p = mk(a=a, horizon=3)
        d1 = [0.0, -0.0, 1.5, -1.5, np.nextafter(1.5, 0.0), 2.0, -2.0, 0.3, 1e110, -1e110, 1e160, -1e160]
        d1 += [np.inf, -np.inf, np.nan]
        m = 2 * len(d1)
        w = np.zeros((p.horizon, m))
        w[0] = d1 * 2
        w[1] = [0.25, -0.0] * len(d1)
        path = np.zeros((p.horizon, m), dtype=np.int8)
        path[:, len(d1) :] = 1
        thr = np.array([[np.inf, np.inf], [1.0, 1.0], [1.5, 2.0], [np.inf, np.inf]])
        policy = threshold_policy(ThresholdSchedule(thr))
        with np.errstate(all="ignore"):
            stages = [[np.copy(x) for x in stage] for stage in sim._closed_loop(p, policy, -0.0, path, w)]
            for t, (delta, c, u, cost) in enumerate(stages):
                assert cost.tobytes() == stage_cost(delta, c, u, p).tobytes()
                if t + 1 < p.horizon:
                    assert stages[t + 1][0].tobytes() == step_error(delta, w[t], u, c, p).tobytes()
        assert stages[1][0].tobytes() == w[0].tobytes()
        assert set(zip(stages[1][2].tolist(), path[1].tolist())) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert np.isnan(stages[1][3]).any() and np.isinf(stages[2][0]).any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "policy", [idle_policy(), always_transmit_policy(), THRESHOLD], ids=["idle", "always", "threshold"]
    )
    @pytest.mark.parametrize("a", [0.0, 0.9, -1.2])
    def test_rollout_does_not_warn(self, policy, a):
        for seed in range(10):
            rollout(mk(a=a, horizon=6), policy, seed, delta0=0.75)

    @pytest.mark.parametrize("bad", [1.0, math.nan])
    def test_uniforms_are_checked_before_the_first_stage(self, bad):
        # the one bad uniform steps c(T-1) to c(T) in the step block's last
        # row, the last draw of the block's one uniform fill
        p = mk(horizon=6)

        class LastDrawBad:
            def __init__(self):
                self.g = np.random.default_rng(4)

            def standard_normal(self, out):
                return self.g.standard_normal(out=out)

            def random(self, size=None, out=None):
                draws = self.g.random(size, out=out)
                if out is not None:
                    out[-1, -1] = bad
                return draws

        calls = []

        def policy(delta, c, t):
            calls.append(t)
            return np.zeros(len(delta), dtype=np.int8)

        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            sim._simulate_chunk(p, policy, STEP_ROWS, LastDrawBad(), 0.0, None)
        assert calls == []


def _public_reference_chunk(params, policy, m, g, delta0, c0):
    """_simulate_chunk from the public model functions only: after the m
    c(0) uniforms, one (rows, T) fill of the normals and one of the channel
    uniforms per step block of STEP_ROWS rollouts, then every rollout of the
    block stepped a stage at a time with step_error, step_channel and
    stage_cost."""
    T = params.horizon
    good = g.random(m) < params.stationary_good_prob()
    c_start = np.full(m, c0) if c0 is not None else good.astype(int)
    total = np.zeros(m)
    for s in range(0, m, STEP_ROWS):
        rows = min(STEP_ROWS, m - s)
        w = g.normal(0.0, params.sigma, size=(rows, T))
        u_chan = g.random(size=(rows, T))
        c, delta, block = c_start[s : s + rows], np.full(rows, float(delta0)), total[s : s + rows]
        for t in range(T):
            u = policy(delta, c, T - t)
            block += stage_cost(delta, c, u, params)
            delta = step_error(delta, w[:, t], u, c, params)
            c = step_channel(c, u_chan[:, t], params)
    return total


class TestChunks:
    """Step blocks inside a chunk, and chunks on a thread pool."""

    @pytest.mark.parametrize(
        "policy", [idle_policy(), always_transmit_policy(), THRESHOLD], ids=["idle", "always", "threshold"]
    )
    @pytest.mark.parametrize("c0", [None, 0, 1])
    # 4095 and 4097: short single blocks, odd, on either side of a power of two
    @pytest.mark.parametrize("m", [1, 4095, 4097, STEP_ROWS - 1, STEP_ROWS + 1, CHUNK_SIZE - 1, CHUNK_SIZE])
    def test_row_blocks_draw_what_one_fill_draws(self, policy, c0, m):
        p = mk(horizon=6)
        g, g_ref = sim._generator(5, 3), sim._generator(5, 3)
        total = sim._simulate_chunk(p, policy, m, g, 0.75, c0)
        want = _public_reference_chunk(p, policy, m, g_ref, 0.75, c0)
        assert total.tobytes() == want.tobytes()
        assert g.random(4).tolist() == g_ref.random(4).tolist()  # same stream position

    def test_chunk_peak_allocation(self):
        # a warm full chunk of the mc-rollouts model (T = 20) holds one step
        # block's fill, noise, channel path and stage buffers, and the chunk's
        # totals: a peak of 7.46 MiB.  Drawing every normal of the chunk
        # before its first uniform held its 10 MiB of scaled normals: 12.24 MiB.
        args = (MC_MODEL, MC_POLICY, 7, 0.0, None, 65, 0, CHUNK_SIZE)  # k_top = 65 of a full chunk
        sim._chunk_figures(*args)
        tracemalloc.start()
        try:
            sim._chunk_figures(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20

    @pytest.mark.filterwarnings("ignore:risk estimate is tail-dominated")
    def test_estimate_does_not_depend_on_worker_count(self, monkeypatch):
        p = mk(horizon=3)
        n = 5 * CHUNK_SIZE + 3
        got = []
        for workers in (1, 2, 4):
            monkeypatch.setattr(sim, "_usable_cpus", lambda: workers)
            got.append(estimate_risk_objective(p, THRESHOLD, n, seed=3, delta0=0.75))
        assert got[0] == got[1] == got[2]

    def test_worker_failure_propagates_and_joins_the_pool(self, monkeypatch):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        lock = threading.Lock()
        calls = [0]
        idle = idle_policy()
        per_chunk = CHUNK_SIZE // STEP_ROWS  # one call per step block at T = 1

        def flaky(delta, c, t):
            with lock:
                calls[0] += 1
                late = calls[0] > per_chunk
            if late:
                raise ValueError("decision failed on a later chunk")
            return idle(delta, c, t)

        before = threading.active_count()
        with pytest.raises(ValueError, match="later chunk"):
            estimate_risk_objective(mk(horizon=1), flaky, 3 * CHUNK_SIZE, seed=0)
        assert threading.active_count() == before
