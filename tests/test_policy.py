"""Threshold extraction, decision rules, and schedule round trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from risksched import (
    GridSpec,
    ModelParams,
    NonThresholdPolicyError,
    PolicyTable,
    QuadratureSpec,
    ThresholdSchedule,
    always_transmit_policy,
    auto_delta_max,
    decide,
    extract_thresholds,
    idle_policy,
    threshold_policy,
    value_iterate,
)

GRID = GridSpec(4.0, 9)  # folded nodes 0, 1, 2, 3, 4


def folded_table(cut_nodes):
    """Build a folded PolicyTable transmitting from node index cut on.

    cut_nodes[j][c] is a folded node index or None for 'never'.
    """
    T = len(cut_nodes) - 1
    m = GRID.n_folded
    u = np.zeros((T + 1, 2, m), dtype=np.int8)
    for j, per_c in enumerate(cut_nodes):
        for c, cut in enumerate(per_c):
            if cut is not None:
                u[j, c, cut:] = 1
    margin = np.where(u == 1, -1.0, 1.0)
    margin[0] = np.inf
    return PolicyTable(u_star=u, q_margin=margin, grid=GRID, space="folded")


class TestThresholdSchedule:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ThresholdSchedule(np.zeros((3,)))
        with pytest.raises(ValueError):
            ThresholdSchedule(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            ThresholdSchedule(np.array([[-1.0, np.inf], [0.0, np.inf]]))
        with pytest.raises(ValueError, match="non-negative"):
            ThresholdSchedule(np.array([[np.inf, np.inf], [np.inf, np.nan]]))

    def test_stage_indexing(self):
        thr = np.array([[np.inf, np.inf], [np.inf, 2.0], [np.inf, 1.0]])
        s = ThresholdSchedule(thr)
        assert s.horizon == 2


class TestExtractThresholds:
    def test_reads_off_cut_nodes(self):
        table = folded_table([(None, None), (None, 2), (1, 0)])
        schedule = extract_thresholds(table, GRID)
        expected = np.array([[np.inf, np.inf], [np.inf, 2.0], [1.0, 0.0]])
        assert np.array_equal(schedule.threshold, expected)

    def test_rejects_gap_in_transmit_set(self):
        table = folded_table([(None, None), (None, 1)])
        table.u_star[1, 1, 3] = 0  # hole: 0 1 1 0 1
        with pytest.raises(NonThresholdPolicyError) as ei:
            extract_thresholds(table, GRID)
        assert ei.value.stages_to_go == 1
        assert ei.value.c == 1
        assert ei.value.node == 3

    def test_rejects_original_table(self):
        u = np.zeros((2, 2, GRID.n_points), dtype=np.int8)
        u[1, 1, :] = (np.abs(GRID.nodes()) >= 2.0).astype(np.int8)
        table = PolicyTable(u_star=u, q_margin=np.where(u == 1, -1.0, 1.0), grid=GRID, space="original")
        with pytest.raises(ValueError, match=r'value_iterate\(\.\.\., space="folded"\)'):
            extract_thresholds(table, GRID)

    def test_reads_nodes_from_the_table_grid(self):
        # standard model at T = 2 on its auto grid: threshold(j=1, c=1) is the
        # first node past sqrt(lambda) = 1, node 46 at spacing 0.0225
        p = ModelParams(a=0.9, sigma2=1.0, lam=1.0, gamma=0.05, horizon=2, p01=0.3, p10=0.2)
        grid = GridSpec(9.0, 401)
        assert auto_delta_max(p) == grid.delta_max
        _, pol = value_iterate(p, grid, QuadratureSpec(), space="folded")
        assert extract_thresholds(pol, grid).threshold[1, 1] == 1.035
        for other in (GridSpec(18.0, 401), GridSpec(9.0, 201)):
            with pytest.raises(ValueError, match="not the policy table's grid"):
                extract_thresholds(pol, other)


class TestDecide:
    def test_boundary_is_transmit(self):
        s = ThresholdSchedule(np.array([[np.inf, np.inf], [np.inf, 1.5]]))
        assert decide(s, 1.5, 1, 1) == 1
        assert decide(s, -1.5, 1, 1) == 1
        assert decide(s, 1.4999, 1, 1) == 0
        assert decide(s, 99.0, 0, 1) == 0  # bad channel: never
        assert decide(s, 99.0, 1, 0) == 0  # no stages left

    def test_vectorized_over_delta_and_c(self):
        s = ThresholdSchedule(np.array([[np.inf, np.inf], [2.0, 1.0]]))
        out = decide(s, np.array([1.0, 1.0, -3.0]), np.array([1, 0, 0]), 1)
        assert np.array_equal(out, [1, 0, 1])

    def test_scalar_and_array_channels_agree(self):
        s = ThresholdSchedule(np.array([[np.inf, np.inf], [2.0, 1.0]]))
        delta = np.array([0.5, 1.0, 1.5, -2.0, 3.0])
        for c in (0, 1):
            out = decide(s, delta, np.full(len(delta), c, dtype=np.int8), 1)
            assert out.tolist() == [decide(s, d, c, 1) for d in delta]
        with pytest.raises(IndexError):
            decide(s, 0.0, 2, 1)
        with pytest.raises(IndexError):
            decide(s, np.zeros(2), np.array([0, 2]), 1)

    def test_stage_bounds(self):
        s = ThresholdSchedule(np.array([[np.inf, np.inf], [np.inf, 1.0]]))
        with pytest.raises(ValueError):
            decide(s, 0.0, 1, 2)
        with pytest.raises(ValueError):
            decide(s, 0.0, 1, -1)


class TestUnfold:
    """A folded table read as a rule on signed delta, through its thresholds."""

    def test_nearest_below_lookup(self):
        rule = threshold_policy(extract_thresholds(folded_table([(None, None), (None, 2)]), GRID))
        # transmit from node 2 on; node spacing is 1
        assert rule(1.999, 1, 1) == 0
        assert rule(2.0, 1, 1) == 1
        assert rule(-2.5, 1, 1) == 1
        assert rule(7.3, 1, 1) == 1  # clamps beyond delta_max
        assert rule(2.5, 0, 1) == 0

    @given(
        cut=st.integers(0, GRID.n_folded),  # n_folded means 'never'
        delta=st.floats(-6.0, 6.0),
        c=st.integers(0, 1),
    )
    def test_matches_threshold_rule_for_upsets(self, cut, delta, c):
        # For up-set tables the >=-threshold rule is the table read at the
        # folded node nearest below |delta|, clamped beyond delta_max.
        cut_idx = None if cut == GRID.n_folded else cut
        table = folded_table([(None, None), (cut_idx, cut_idx)])
        pos = GRID.folded_nodes()
        idx = min(max(int(np.searchsorted(pos, abs(delta), side="right")) - 1, 0), len(pos) - 1)
        schedule = extract_thresholds(table, GRID)
        assert decide(schedule, delta, c, 1) == table.u_star[1, c, idx]


class TestBuiltinPolicies:
    def test_idle_and_always(self):
        assert idle_policy()(3.0, 1, 2) == 0
        assert always_transmit_policy()(0.0, 0, 2) == 1
        out = idle_policy()(np.zeros(4), np.ones(4, dtype=int), 1)
        assert out.shape == (4,) and not out.any()
        out = always_transmit_policy()(np.zeros(4), np.ones(4, dtype=int), 1)
        assert out.shape == (4,) and out.all()

    def test_threshold_policy_wraps_decide(self):
        s = ThresholdSchedule(np.array([[np.inf, np.inf], [np.inf, 1.0]]))
        rule = threshold_policy(s)
        d = np.array([0.5, 1.0, 2.0])
        assert np.array_equal(rule(d, np.ones(3, dtype=int), 1), decide(s, d, np.ones(3, dtype=int), 1))
