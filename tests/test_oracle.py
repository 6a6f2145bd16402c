"""Quantized-chain oracle tests with hand-computable expected values."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from risksched import (
    EnumerationBudgetError,
    ModelParams,
    brute_force_optimal,
    chain_policy,
    exact_policy_cost,
    idle_policy,
    always_transmit_policy,
    check_feasibility,
    quantize,
)
from risksched.cli import cmd_oracle, parse_config
from risksched.oracle import _evaluate, _mix, _stage, _stage_costs, _threshold_cuts, enumeration_size


def mk(**kw):
    base = dict(a=0.9, sigma2=1.0, lam=1.0, gamma=0.05, horizon=2, p01=0.3, p10=0.2)
    base.update(kw)
    return ModelParams(**base)


class TestQuantize:
    def test_noise_atoms_two_point(self):
        chain = quantize(mk(sigma2=4.0), 5, 2)
        assert chain.noise_values.tolist() == [-2.0, 2.0]
        assert chain.noise_probs.tolist() == [0.5, 0.5]

    def test_noise_atoms_three_point(self):
        chain = quantize(mk(sigma2=1.0), 5, 3)
        s3 = math.sqrt(3.0)
        assert chain.noise_values.tolist() == [-s3, 0.0, s3]
        assert chain.noise_probs.tolist() == [1 / 6, 2 / 3, 1 / 6]

    @pytest.mark.parametrize("noise_points", [2, 3, 5])
    @pytest.mark.parametrize("sigma2", [1e-6, 0.09, 1.0, 1.7, 87.6, 1e6])
    def test_noise_moments_match_gaussian(self, noise_points, sigma2):
        # the atoms are mirrored bitwise, and their moments up to degree
        # 2k - 1 are N(0, sigma^2)'s to 1e-15 of the absolute moment
        chain = quantize(mk(sigma2=sigma2), 5, noise_points)
        v, p = chain.noise_values, chain.noise_probs
        assert len(v) == noise_points
        assert np.array_equal(v[::-1], -v) and np.array_equal(p[::-1], p)
        assert abs(math.fsum(p) - 1.0) <= 2 * np.spacing(1.0)
        sigma = chain.params.sigma
        for k in range(2 * noise_points):
            # Gaussian moments: 0 for odd k, sigma^k * (k-1)!! for even k
            expected = 0.0 if k % 2 else sigma**k * math.prod(range(k - 1, 0, -2))
            scale = math.fsum(p * np.abs(v) ** k)
            assert abs(math.fsum(p * v**k) - expected) <= 1e-15 * scale

    def test_snap_targets_and_ties(self):
        # states [-1, 0, 1]; a = 0.5, noise +-1; ties snap toward 0
        chain = quantize(mk(a=0.5, sigma2=1.0), 3, 2, delta_q=1.0)
        assert_allclose(chain.delta_states, [-1.0, 0.0, 1.0])
        # from -1: drift -0.5 + {-1, +1} = {-1.5, 0.5}; 0.5 ties -> state 0
        # from  0: {-1, +1} are exact nodes
        # from +1: {-0.5, 1.5}; -0.5 ties -> state 0
        assert chain.drift_to.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert chain.reset_to.tolist() == [0, 2]

    @pytest.mark.filterwarnings("error")
    def test_snap_drift_far_past_the_ladder(self):
        # a * delta lies ~1e200 ladder steps out, beyond any int64 index
        chain = quantize(mk(a=1e200), 9, 3)
        n, states = chain.n_states, chain.delta_states
        assert np.all(chain.drift_to[states > 0] == n - 1)
        assert np.all(chain.drift_to[states < 0] == 0)

    @pytest.mark.parametrize("delta_q", [0.7, 1.0, 3.3, 5.2])
    def test_ladder_is_mirrored_bitwise(self, delta_q):
        # an inexact ladder step must not split mirrored magnitudes, which
        # would inflate the threshold enumeration beyond enumeration_size
        for n in range(3, 42, 2):
            chain = quantize(mk(horizon=1), n, 3, delta_q=delta_q)
            states = chain.delta_states
            assert np.array_equal(states, -states[::-1])
            assert len(np.unique(np.abs(states))) == (n + 1) // 2
            base, exponent = enumeration_size(n, 1)
            assert brute_force_optimal(chain).n_enumerated == base**exponent

    @pytest.mark.parametrize("noise_points", [2, 3, 5])
    @pytest.mark.parametrize("n_delta", [3, 5, 9, 17, 33])
    def test_cuts_are_the_distinct_magnitudes(self, n_delta, noise_points):
        chain = quantize(mk(horizon=1), n_delta, noise_points)
        want = np.append(np.unique(np.abs(chain.delta_states)), np.inf)
        assert _threshold_cuts(chain).tobytes() == want.tobytes()

    def test_transition_laws_are_stochastic(self):
        chain = quantize(mk(), 9, 3)
        assert_allclose(chain.drift_matrix().sum(axis=1), np.ones(9), atol=1e-15)
        assert chain.reset_vector().sum() == pytest.approx(1.0, abs=1e-15)

    def test_state_index(self):
        chain = quantize(mk(), 9, 3, delta_q=4.0)  # spacing 1
        assert chain.state_index(2.0) == 6
        assert chain.state_index(2.4) == 6
        assert chain.state_index(-2.5) == 2  # tie between -3 and -2: toward -2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_delta=8, noise_points=3),
            dict(n_delta=1, noise_points=3),
            dict(n_delta=9, noise_points=4),
            dict(n_delta=9, noise_points=3, delta_q=-1.0),
            dict(n_delta=9, noise_points=3, delta_q=1e308),  # the ladder spans 2e308
            dict(n_delta=9, noise_points=3, delta_q=5e-324),  # its magnitudes round together
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            quantize(mk(), **kwargs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "delta_q",
        [
            np.finfo(float).max / 2,  # the widest ladder: 2 * delta_q is the largest float
            2e-323,  # magnitudes 0, 5e-324, 1e-323, 1.5e-323, 2e-323: four subnormal steps
        ],
    )
    def test_accepts_ladder_at_the_float_limits(self, delta_q):
        states = quantize(mk(), 9, 3, delta_q=delta_q).delta_states
        assert states[-1] == delta_q and np.all(np.diff(states) > 0)


class TestExactPolicyCost:
    def test_idle_two_stage_by_hand(self):
        # a=1, states -4..4 step 1, noise +-1 lands on nodes exactly.
        # From delta0=1 idle: costs 1 then (1 +- 1)^2 in {0, 4}, each w.p. 1/2
        p = mk(a=1.0, sigma2=1.0, gamma=0.07, horizon=2)
        chain = quantize(p, 9, 2, delta_q=4.0)
        got = exact_policy_cost(chain, idle_policy(), 1.0, 0)
        expected = 0.5 * math.exp(p.gamma * 1.0) * (1.0 + math.exp(p.gamma * 4.0))
        assert got == pytest.approx(expected, rel=1e-15)

    def test_idle_ignores_channel_state(self):
        chain = quantize(mk(), 9, 3)
        a = exact_policy_cost(chain, idle_policy(), 1.0, 0)
        b = exact_policy_cost(chain, idle_policy(), 1.0, 1)
        assert a == b

    def test_always_transmit_on_pinned_good_channel(self):
        # p10=0 keeps c=1 forever; every stage delivers, so each of the T
        # stage costs is exactly lam
        p = mk(p10=0.0, gamma=0.04, horizon=3)
        chain = quantize(p, 9, 3)
        got = exact_policy_cost(chain, always_transmit_policy(), 2.0, 1)
        assert got == pytest.approx(math.exp(p.gamma * 3 * p.lam), rel=1e-14)

    def test_always_transmit_on_pinned_bad_channel(self):
        # p01=0 keeps c=0 forever; every attempt is lost, so the error moves
        # as under idle and each stage costs lam on top of the idle cost
        p = mk(p01=0.0, gamma=0.04, horizon=3)
        chain = quantize(p, 9, 3)
        transmit = exact_policy_cost(chain, always_transmit_policy(), 2.0, 0)
        idle = exact_policy_cost(chain, idle_policy(), 2.0, 0)
        assert transmit == pytest.approx(math.exp(p.gamma * 3 * p.lam) * idle, rel=1e-14)

    def test_zero_horizon_is_one(self):
        chain = quantize(mk(horizon=0), 9, 3)
        assert exact_policy_cost(chain, idle_policy(), 3.0, 1) == 1.0

    def test_start_state_snaps(self):
        chain = quantize(mk(horizon=2), 9, 3, delta_q=4.0)
        a = exact_policy_cost(chain, idle_policy(), 1.9, 0)
        b = exact_policy_cost(chain, idle_policy(), 2.0, 0)
        assert a == b


def _dense_stage(chain, g):
    """_stage through the chain's law in matrix form, in extended precision."""
    drift, reset, channel = (
        np.asarray(m, dtype=np.longdouble)
        for m in (chain.drift_matrix(), chain.reset_vector(), chain.channel)
    )
    e0, e1 = _stage_costs(chain)
    g = g.astype(np.longdouble)
    idle = (drift @ g) @ channel.T
    cont_reset = (reset @ g) @ channel.T
    transmit = np.stack([e1[:, 0] * idle[..., 0], e1[:, 1] * cont_reset[..., 1, None]], axis=-1)
    return (idle * e0).astype(float), transmit.astype(float)


class TestStage:
    @pytest.mark.parametrize(
        "kwargs,n_delta,noise_points,delta_q",
        [
            (dict(), 9, 3, None),
            (dict(a=0.0), 5, 2, None),
            (dict(a=-0.75, p01=0.9, p10=0.7), 17, 5, None),
            (dict(p01=0.5, p10=0.5), 11, 3, 1.0),
            # ladder ends: every row sends two or three atoms to one end
            # state, and a delivery sends two to each end (reset_to 0 0 4 8 8)
            (dict(a=1.2, sigma2=4.0), 9, 5, 2.0),
        ],
    )
    def test_gather_matches_dense_law(self, kwargs, n_delta, noise_points, delta_q):
        chain = quantize(mk(**kwargs), n_delta, noise_points, delta_q)
        rng = np.random.default_rng(11)
        for sd in (0.1, 1.0, 3.0):
            g = np.exp(rng.normal(0.0, sd, (3, 4, n_delta, 2)))  # two leading policy axes
            for got, ref in zip(_stage(chain, g), _dense_stage(chain, g)):
                assert got.shape == g.shape
                assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))

    def test_runs_without_lapack(self, tmp_path, monkeypatch, capsys):
        # the atoms are closed-form and the stage a gather: no eigensolver
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called LAPACK")

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for noise_points in (2, 3, 5):
            chain = quantize(mk(horizon=2), 9, noise_points)
            result = brute_force_optimal(chain)
            assert exact_policy_cost(chain, idle_policy(), 1.0, 0) > 1.0
            assert result.value.shape == (9, 2)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "a = 0.9\nsigma2 = 1.0\nlambda = 1.0\ngamma = 0.05\nT = 2\np01 = 0.3\n"
            "p10 = 0.2\nn_points = 201\nquad_rule = trapezoid-on-grid\n"
        )
        assert cmd_oracle(parse_config(cfg), tmp_path / "out", 9, 5, None) == 0
        assert capsys.readouterr().out.count("PASS") == 6


def _reference_policies(chain):
    """Every enumerated policy's action table (P, T + 1, n, 2), by stages to
    go (row 0, with nothing left to decide, never transmits)."""
    T = chain.params.horizon
    cuts = _threshold_cuts(chain)
    k = len(cuts)
    rem = np.arange(k ** (2 * T), dtype=np.int64)
    choice = np.full((len(rem), T + 1, 2), k - 1, dtype=np.int64)
    for slot in range(2 * T):
        choice[:, 1 + slot // 2, slot % 2] = rem % k
        rem = rem // k
    abs_states = np.abs(chain.delta_states)
    return (abs_states[None, None, :, None] >= cuts[choice][:, :, None, :]).astype(np.int8)


class TestBruteForce:
    @pytest.mark.parametrize("horizon,n_delta", [(0, 9), (1, 5), (2, 17), (3, 9)])
    def test_enumeration_matches_per_policy_evaluation(self, horizon, n_delta):
        # the stage-by-stage pass must find bitwise the minimum of every
        # enumerated policy evaluated on its own
        chain = quantize(mk(horizon=horizon), n_delta, 3)
        actions = _reference_policies(chain)
        result = brute_force_optimal(chain)
        assert result.n_enumerated == len(actions)
        assert np.array_equal(result.enum_value, _evaluate(chain, actions).min(axis=0))

    def test_enumeration_memory_is_bounded(self):
        # 18**4 threshold policies: one (P, n, 2) float64 table of them is 55 MB
        chain = quantize(mk(horizon=2), 33, 5)
        tracemalloc.start()
        try:
            result = brute_force_optimal(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.n_enumerated == 18**4
        assert peak < 80e6

    def test_one_stage_memory_is_linear_in_states(self):
        # at T = 1 no (A, n, 2) first-stage action table is built: with 202
        # cuts per channel it is 33 MB of bools, and np.where on it 262 MB
        chain = quantize(mk(horizon=1), 401, 3)
        tracemalloc.start()
        try:
            result = brute_force_optimal(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.n_enumerated == 202**2
        assert peak < 1 << 20

    def test_certified_value_matches_direct_evaluation(self):
        chain = quantize(mk(horizon=3), 9, 3)
        result = brute_force_optimal(chain)
        rule = chain_policy(result.policy, chain)
        for i in (0, 4, 8):
            for c in (0, 1):
                direct = exact_policy_cost(chain, rule, float(chain.delta_states[i]), c)
                assert direct == pytest.approx(float(result.value[i, c]), rel=1e-13)

    def test_optimal_policy_structure(self):
        result = brute_force_optimal(quantize(mk(horizon=3), 9, 3))
        assert result.policy[:, :, 0].sum() == 0  # bad channel: always idle
        assert np.array_equal(result.policy, result.policy[:, ::-1, :])  # even

    def test_threshold_budget_error(self):
        chain = quantize(mk(horizon=10), 9, 3)  # 6**20 threshold tables
        with pytest.raises(EnumerationBudgetError):
            brute_force_optimal(chain)

    @pytest.mark.parametrize("mode", ["full", "auto", "greedy"])
    def test_threshold_is_the_only_family(self, mode):
        with pytest.raises(ValueError, match="'threshold'"):
            brute_force_optimal(quantize(mk(horizon=2), 3, 3), mode=mode)

    @pytest.mark.parametrize(
        "kwargs,delta_q,n_inf",
        [
            # exp(gamma * lam) = e^800 overflows: every transmit value is
            # +inf, and the optimum, which never transmits, stays finite
            (dict(lam=2e4, gamma=0.04), None, 0),
            # exp(gamma * delta^2) overflows at the outer states
            (dict(), 1e3, 8),
        ],
    )
    def test_overflowing_values_are_inf(self, kwargs, delta_q, n_inf):
        chain = quantize(mk(**kwargs), 9, 3, delta_q)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = brute_force_optimal(chain)
            direct = _evaluate(chain, result.policy[None])[0]
        assert np.count_nonzero(np.isinf(result.value)) == n_inf
        assert not np.any(np.isnan(result.enum_value))
        assert np.array_equal(result.enum_value, result.value)
        assert np.array_equal(direct, result.value)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(-1.3, 1.3),
        log_sigma2=st.floats(-2.0, 3.0),
        log_lam=st.floats(-2.0, 4.0),
        log_gamma=st.floats(-6.0, 0.0),
        horizon=st.integers(1, 3),
        p01=st.floats(0.0, 1.0),
        p10=st.floats(0.0, 1.0),
        n_delta=st.sampled_from([3, 5, 9]),
        noise_points=st.sampled_from([2, 3, 5]),
    )
    def test_certified_optimum_is_an_even_threshold_policy(
        self, a, log_sigma2, log_lam, log_gamma, horizon, p01, p10, n_delta, noise_points
    ):
        # the paper's structural result on random feasible chains: the
        # enumerated threshold family holds the backward-induction optimum,
        # which is even, idle on the bad channel and an up-set in |delta|
        p = mk(
            a=a,
            sigma2=math.exp(log_sigma2),
            lam=math.exp(log_lam),
            gamma=math.exp(log_gamma),
            horizon=horizon,
            p01=p01,
            p10=p10,
        )
        assume(check_feasibility(p).feasible)
        chain = quantize(p, n_delta, noise_points)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            policy = brute_force_optimal(chain).policy
        assert np.array_equal(policy, policy[:, ::-1, :])
        assert not policy[:, :, 0].any()
        mid = chain.n_states // 2
        assert np.all(np.diff(policy[1:, mid:, :].astype(int), axis=1) >= 0)


class TestMix:
    # x[..., c] over next channels: (inf, 1), (1, inf), (inf, inf), (2, 3)
    X = np.array([[np.inf, 1.0], [1.0, np.inf], [np.inf, np.inf], [2.0, 3.0]])

    def test_infinite_channel_of_positive_probability(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _mix(self.X, np.array([0.3, 0.7]))
        assert np.array_equal(got, [np.inf, np.inf, np.inf, 3.0 + 0.3 * (2.0 - 3.0)])

    @pytest.mark.parametrize(
        "row,want",
        [([1.0, 0.0], [np.inf, 1.0, np.inf, 2.0]), ([0.0, 1.0], [1.0, np.inf, np.inf, 3.0])],
    )
    def test_zero_probability_channel_is_ignored(self, row, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _mix(self.X, np.array(row))
        assert np.array_equal(got, want)


class TestChainPolicy:
    def test_lookup_and_snapping(self):
        chain = quantize(mk(horizon=2), 9, 3, delta_q=4.0)
        u = np.zeros((3, 9, 2), dtype=np.int8)
        u[1, 6:, 1] = 1  # transmit from state 2.0 on, only at j=1, c=1
        rule = chain_policy(u, chain)
        assert rule(2.0, 1, 1) == 1
        assert rule(2.3, 1, 1) == 1  # snaps to 2.0
        assert rule(1.4, 1, 1) == 0  # snaps to 1.0
        assert rule(2.0, 0, 1) == 0
        assert rule(2.0, 1, 2) == 0
