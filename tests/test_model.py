"""Unit tests for the closed-loop model primitives."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from risksched import (
    ModelParams,
    stage_cost,
    step_channel,
    step_error,
    step_source,
    update_estimate,
)


def mk(**kw):
    base = dict(a=0.9, sigma2=1.0, lam=1.0, gamma=0.05, horizon=3, p01=0.3, p10=0.2)
    base.update(kw)
    return ModelParams(**base)


class TestModelParams:
    def test_accepts_baseline(self):
        p = mk()
        assert p.sigma == 1.0
        assert p.horizon == 3
        assert mk(horizon=np.int64(4)).horizon == 4

    @pytest.mark.parametrize(
        "field,value",
        [
            ("sigma2", 0.0),
            ("sigma2", -1.0),
            ("lam", 0.0),
            ("gamma", 0.0),
            ("gamma", -0.1),
            ("horizon", -1),
            ("horizon", 2.5),
            ("horizon", 2.0),  # a whole float still cannot size the beta trace
            ("p01", -0.01),
            ("p01", 1.01),
            ("p10", 1.5),
            ("a", math.nan),
            ("a", math.inf),
            ("a", -math.inf),
            ("sigma2", math.inf),
            ("lam", math.inf),
            ("gamma", math.inf),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            mk(**{field: value})

    def test_sigma_is_sqrt_sigma2(self):
        assert mk(sigma2=4.0).sigma == 2.0

    def test_channel_matrix_rows_sum_to_one(self):
        m = mk(p01=0.3, p10=0.2).channel_matrix()
        assert_allclose(m.sum(axis=1), [1.0, 1.0], rtol=0, atol=0)
        assert m[0, 1] == 0.3
        assert m[1, 0] == 0.2

    def test_stationary_good_prob(self):
        assert mk(p01=0.3, p10=0.2).stationary_good_prob() == pytest.approx(0.6)
        # frozen chain: no unique stationary law, documented convention 1/2
        assert mk(p01=0.0, p10=0.0).stationary_good_prob() == 0.5
        assert mk(p01=1.0, p10=0.0).stationary_good_prob() == 1.0


class TestTransitions:
    def test_step_source_affine(self):
        p = mk(a=0.9)
        assert step_source(2.0, -0.5, p) == pytest.approx(0.9 * 2.0 - 0.5)
        assert_allclose(step_source(np.array([0.0, 1.0]), 1.0, p), [1.0, 1.9])

    def test_step_channel_threshold_semantics(self):
        p = mk(p01=0.3, p10=0.2)
        # from bad: recover iff draw < p01 (strict)
        assert step_channel(0, 0.2999, p) == 1
        assert step_channel(0, 0.3, p) == 0
        # from good: drop iff draw < p10 (strict)
        assert step_channel(1, 0.1999, p) == 0
        assert step_channel(1, 0.2, p) == 1

    def test_step_channel_vectorized(self):
        p = mk(p01=0.3, p10=0.2)
        c = np.array([0, 0, 1, 1])
        draw = np.array([0.0, 0.9, 0.0, 0.9])
        assert_allclose(step_channel(c, draw, p), [1, 0, 0, 1])

    @pytest.mark.parametrize("draw", [-0.1, 1.0, 1.5, math.nan])
    def test_step_channel_rejects_bad_draws(self, draw):
        with pytest.raises(ValueError):
            step_channel(0, draw, mk())

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.0])
    def test_step_channel_rejects_bad_draws_in_arrays(self, bad):
        with pytest.raises(ValueError):
            step_channel(np.array([1, 0]), np.array([0.5, bad]), mk())
        with pytest.raises(ValueError):
            step_channel(np.array([1, 0]), np.array([bad, bad]), mk())

    def test_step_channel_matches_three_where_formula(self):
        p = mk(p01=0.3, p10=0.2)
        rng = np.random.default_rng(0)
        draw = rng.random(4096)
        for c in (np.zeros(4096, dtype=np.int8), np.ones(4096, dtype=np.int8), rng.integers(0, 2, 4096)):
            expected = np.where(c == 1, np.where(draw < p.p10, 0, 1), np.where(draw < p.p01, 1, 0))
            out = step_channel(c, draw, p)
            assert np.array_equal(out, expected)
            assert out.dtype == expected.dtype
            assert np.issubdtype(out.dtype, np.integer)
        assert type(step_channel(1, 0.5, p)) is int

    def test_update_estimate(self):
        p = mk(a=0.9)
        # delivery: estimator snaps to x
        assert update_estimate(5.0, 2.0, 1, 1, p) == 2.0
        # no transmission or bad channel: open-loop propagation
        assert update_estimate(5.0, 2.0, 0, 1, p) == pytest.approx(4.5)
        assert update_estimate(5.0, 2.0, 1, 0, p) == pytest.approx(4.5)

    def test_step_error(self):
        p = mk(a=0.9)
        assert step_error(2.0, 0.3, 1, 1, p) == pytest.approx(0.3)
        assert step_error(2.0, 0.3, 0, 1, p) == pytest.approx(2.1)
        assert step_error(2.0, 0.3, 1, 0, p) == pytest.approx(2.1)


def stage_cost_raw(x, x_hat, u, params):
    """g(x, x_hat, u) = lambda*u + (x - x_hat)**2, the cost in source terms."""
    return params.lam * np.asarray(u) + np.square(np.asarray(x) - np.asarray(x_hat))


class TestStageCosts:
    def test_stage_cost_values(self):
        p = mk(lam=1.5)
        assert stage_cost(2.0, 1, 0, p) == 4.0
        assert stage_cost(2.0, 1, 1, p) == 1.5  # delivered: price only
        assert stage_cost(2.0, 0, 1, p) == pytest.approx(1.5 + 4.0)  # lost attempt

    def test_stage_cost_vectorized(self):
        p = mk(lam=1.0)
        d = np.array([0.0, 1.0, 2.0])
        assert_allclose(stage_cost(d, 1, 1, p), [1.0, 1.0, 1.0])
        assert_allclose(stage_cost(d, 0, 0, p), [0.0, 1.0, 4.0])

    @given(
        a=st.floats(-2.0, 2.0),
        x=st.floats(-50.0, 50.0),
        x_hat_prev=st.floats(-50.0, 50.0),
        u=st.integers(0, 1),
        c=st.integers(0, 1),
    )
    def test_raw_cost_matches_error_cost_pathwise(self, a, x, x_hat_prev, u, c):
        # g(x, x_hat, u) after the estimator update equals d(delta, c, u)
        # with delta = x - a*x_hat_prev, whatever the trajectory.
        p = mk(a=a)
        delta = x - a * x_hat_prev
        x_hat = update_estimate(x_hat_prev, x, u, c, p)
        assert_allclose(
            stage_cost_raw(x, x_hat, u, p), stage_cost(delta, c, u, p), rtol=0, atol=1e-9
        )

    @given(
        a=st.floats(-2.0, 2.0),
        x=st.floats(-50.0, 50.0),
        x_hat_prev=st.floats(-50.0, 50.0),
        w=st.floats(-10.0, 10.0),
        u=st.integers(0, 1),
        c=st.integers(0, 1),
    )
    def test_error_recursion_matches_estimator_recursion(self, a, x, x_hat_prev, w, u, c):
        # delta(t+1) = x(t+1) - a*x_hat(t) and the direct error step agree.
        p = mk(a=a)
        delta = x - a * x_hat_prev
        x_hat = update_estimate(x_hat_prev, x, u, c, p)
        x_next = step_source(x, w, p)
        assert_allclose(
            step_error(delta, w, u, c, p), x_next - a * np.asarray(x_hat), rtol=0, atol=1e-9
        )
