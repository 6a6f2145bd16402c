"""Quantized-chain oracle tests with hand-computable expected values."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from risksched import (
    EnumerationBudgetError,
    ModelParams,
    brute_force_optimal,
    chain_policy,
    exact_policy_cost,
    idle_policy,
    always_transmit_policy,
    quantize,
)
from risksched.oracle import _evaluate, _threshold_cuts, enumeration_size


def mk(**kw):
    base = dict(a=0.9, sigma2=1.0, lam=1.0, gamma=0.05, horizon=2, p01=0.3, p10=0.2)
    base.update(kw)
    return ModelParams(**base)


class TestQuantize:
    def test_noise_atoms_two_point(self):
        chain = quantize(mk(sigma2=4.0), 5, 2)
        assert_allclose(chain.noise_values, [-2.0, 2.0], atol=1e-12)
        assert_allclose(chain.noise_probs, [0.5, 0.5], atol=1e-15)

    def test_noise_atoms_three_point(self):
        chain = quantize(mk(sigma2=1.0), 5, 3)
        s3 = math.sqrt(3.0)
        assert_allclose(chain.noise_values, [-s3, 0.0, s3], atol=1e-12)
        assert_allclose(chain.noise_probs, [1 / 6, 2 / 3, 1 / 6], atol=1e-15)

    @pytest.mark.parametrize("noise_points,max_degree", [(2, 3), (3, 5), (5, 9)])
    def test_noise_moments_match_gaussian(self, noise_points, max_degree):
        sigma2 = 1.7
        chain = quantize(mk(sigma2=sigma2), 5, noise_points)
        v, p = chain.noise_values, chain.noise_probs
        # Gaussian moments: 0 for odd k, sigma^k * (k-1)!! for even k
        for k in range(max_degree + 1):
            expected = 0.0 if k % 2 else sigma2 ** (k // 2) * math.prod(range(k - 1, 0, -2))
            assert np.dot(p, v**k) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_snap_targets_and_ties(self):
        # states [-1, 0, 1]; a = 0.5, noise +-1; ties snap toward 0
        chain = quantize(mk(a=0.5, sigma2=1.0), 3, 2, delta_q=1.0)
        assert_allclose(chain.delta_states, [-1.0, 0.0, 1.0])
        # from -1: drift -0.5 + {-1, +1} = {-1.5, 0.5}; 0.5 ties -> state 0
        # from  0: {-1, +1} are exact nodes
        # from +1: {-0.5, 1.5}; -0.5 ties -> state 0
        assert chain.drift_to.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert chain.reset_to.tolist() == [0, 2]

    @pytest.mark.parametrize("delta_q", [0.7, 1.0, 3.3, 5.2])
    def test_ladder_is_mirrored_bitwise(self, delta_q):
        # an inexact ladder step must not split mirrored magnitudes, which
        # would inflate the threshold enumeration beyond enumeration_size
        for n in range(3, 42, 2):
            chain = quantize(mk(horizon=1), n, 3, delta_q=delta_q)
            states = chain.delta_states
            assert np.array_equal(states, -states[::-1])
            assert len(np.unique(np.abs(states))) == (n + 1) // 2
            _, base, exponent = enumeration_size(n, 1, "threshold")
            assert brute_force_optimal(chain, "threshold").n_enumerated == base**exponent

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
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            quantize(mk(), **kwargs)


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


def _reference_policies(chain, mode):
    """Every enumerated policy's action table (P, T, n, 2), by wall stage."""
    T = chain.params.horizon
    n = chain.n_states
    if mode == "full":
        bits = n * 2 * T
        codes = np.arange(2**bits, dtype=np.int64)
        flat = (codes[:, None] >> np.arange(bits, dtype=np.int64)[None, :]) & 1
        return flat.reshape(len(codes), T, n, 2).astype(np.int8)
    cuts = _threshold_cuts(chain)
    k = len(cuts)
    rem = np.arange(k ** (2 * T), dtype=np.int64)
    choice = np.empty((len(rem), T, 2), dtype=np.int64)
    for slot in range(2 * T):
        choice[:, slot // 2, slot % 2] = rem % k
        rem = rem // k
    abs_states = np.abs(chain.delta_states)
    return (abs_states[None, None, :, None] >= cuts[choice][:, :, None, :]).astype(np.int8)


class TestBruteForce:
    @pytest.mark.parametrize(
        "mode,horizon,n_delta",
        [("full", 0, 9), ("full", 1, 5), ("full", 2, 3), ("threshold", 2, 17), ("threshold", 3, 9)],
    )
    def test_enumeration_matches_per_policy_evaluation(self, mode, horizon, n_delta):
        # the stage-by-stage pass must find bitwise the minimum of every
        # enumerated policy evaluated on its own
        chain = quantize(mk(horizon=horizon), n_delta, 3)
        actions = _reference_policies(chain, mode)
        result = brute_force_optimal(chain, mode)
        assert result.n_enumerated == len(actions)
        assert np.array_equal(result.enum_value, _evaluate(chain, actions).min(axis=0))

    def test_enumeration_memory_is_bounded(self):
        # 18**4 threshold policies: one (P, n, 2) float64 table of them is 55 MB
        chain = quantize(mk(horizon=2), 33, 5)
        tracemalloc.start()
        try:
            result = brute_force_optimal(chain, "threshold")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.n_enumerated == 18**4
        assert peak < 80e6

    def test_full_and_threshold_sweeps_agree(self):
        # 3 states, T=2: the unrestricted sweep (4096 policies) and the
        # even-threshold family (81) certify the same optimum
        chain = quantize(mk(horizon=2), 3, 3, delta_q=1.5)
        full = brute_force_optimal(chain, mode="full")
        thr = brute_force_optimal(chain, mode="threshold")
        assert full.enum_mode == "full" and full.n_enumerated == 4096
        assert thr.enum_mode == "threshold" and thr.n_enumerated == 81
        assert np.array_equal(full.value, thr.value)
        assert np.array_equal(full.policy, thr.policy)

    def test_auto_mode_selection(self):
        small = quantize(mk(horizon=2), 3, 3, delta_q=1.5)
        assert brute_force_optimal(small).enum_mode == "full"
        big = quantize(mk(horizon=3), 9, 3)
        assert brute_force_optimal(big).enum_mode == "threshold"

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

    def test_full_budget_error(self):
        chain = quantize(mk(horizon=3), 9, 3)  # 2**54 action tables
        with pytest.raises(EnumerationBudgetError):
            brute_force_optimal(chain, mode="full")

    def test_threshold_budget_error(self):
        chain = quantize(mk(horizon=10), 9, 3)  # 6**20 threshold tables
        with pytest.raises(EnumerationBudgetError):
            brute_force_optimal(chain, mode="threshold")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            brute_force_optimal(quantize(mk(horizon=2), 3, 3), mode="greedy")


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
