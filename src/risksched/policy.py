"""Threshold extraction and runtime decision rules.

The solved transmit sets are up-sets in |delta| (bad-channel sets are
empty), so a policy collapses to one threshold per (stages-to-go, channel):
transmit iff |delta| >= threshold.  Thresholds are read off the folded
policy table, over delta >= 0, as solve computes it.  Everything here is
indexed by stages to go j = 0..T; j = 0 has no decision and carries
threshold +inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import GridSpec, PolicyTable

__all__ = [
    "NonThresholdPolicyError",
    "ThresholdSchedule",
    "extract_thresholds",
    "decide",
    "threshold_policy",
    "idle_policy",
    "always_transmit_policy",
]


class NonThresholdPolicyError(ValueError):
    """A transmit set failed to be an up-set in |delta|.

    This signals a solver bug or a tolerance breach, not a property of the
    problem; the offending (stages_to_go, c, node index) is attached.
    """

    def __init__(self, stages_to_go: int, c: int, node: int, message: str | None = None):
        self.stages_to_go = stages_to_go
        self.c = c
        self.node = node
        super().__init__(
            message
            or f"transmit set is not an up-set at stages_to_go={stages_to_go}, "
            f"c={c}, node={node}"
        )


@dataclass(frozen=True)
class ThresholdSchedule:
    """threshold[j][c]: transmit at j stages to go iff |delta| >= threshold.

    +inf means never transmit; column c=0 is +inf throughout.  Row j=0 is
    the degenerate no-decision row (+inf).
    """

    threshold: np.ndarray

    def __post_init__(self) -> None:
        thr = np.asarray(self.threshold, dtype=float)
        if thr.ndim != 2 or thr.shape[1] != 2:
            raise ValueError(f"threshold must have shape (T+1, 2), got {thr.shape}")
        if not np.all(thr >= 0):  # NaN too: it compares false and never transmits
            raise ValueError("thresholds must be non-negative (or +inf)")
        object.__setattr__(self, "threshold", thr)

    @property
    def horizon(self) -> int:
        return self.threshold.shape[0] - 1


def extract_thresholds(policy: PolicyTable, grid: GridSpec) -> ThresholdSchedule:
    """Smallest node with u_star = 1 per (stages-to-go, c); +inf when none.

    Takes the folded table of value_iterate(..., space="folded") and reads
    node positions from the table's own grid, which grid must equal.
    Raises ValueError for any other table or grid, and
    NonThresholdPolicyError if any transmit set is not an up-set.
    """
    if policy.space != "folded":
        raise ValueError(
            f"extract_thresholds needs a folded policy table, from "
            f'value_iterate(..., space="folded"); got space={policy.space!r}'
        )
    if grid != policy.grid:
        raise ValueError(f"grid {grid} is not the policy table's grid {policy.grid}")
    pos = policy.grid.folded_nodes()
    T = policy.horizon
    thr = np.full((T + 1, 2), np.inf)
    for j in range(T + 1):
        for c in (0, 1):
            row = policy.u_star[j, c]
            ones = np.flatnonzero(row)
            if len(ones) == 0:
                continue
            first = ones[0]
            gaps = np.flatnonzero(row[first:] == 0)
            if len(gaps):
                raise NonThresholdPolicyError(j, c, int(first + gaps[0]))
            thr[j, c] = pos[first]
    return ThresholdSchedule(threshold=thr)


def decide(schedule: ThresholdSchedule, delta, c, t):
    """Action of the schedule with t stages to go: 1 iff |delta| >= threshold."""
    if not 0 <= t <= schedule.horizon:
        raise ValueError(f"t must lie in [0, {schedule.horizon}], got {t}")
    # A 1-D take on the stage's row: for the 16384 rollouts of one Monte
    # Carlo step block, a 2-D fancy index took 56 us against 28 us (2-vCPU
    # x86_64 VM).  Out-of-range c raises IndexError either way.  The bool
    # mask is viewed as int8 (same 0/1 bytes), not copied.
    thr = schedule.threshold[t].take(c)
    out = (np.abs(delta) >= thr).view(np.int8)
    return out if out.ndim else int(out)


def threshold_policy(schedule: ThresholdSchedule):
    """Wrap a schedule as a vectorized decision function (delta, c, t)."""

    def rule(delta, c, t: int):
        return decide(schedule, delta, c, t)

    return rule


def _constant_policy(u: int):
    def rule(delta, c, t: int):
        out = np.full(np.broadcast(np.asarray(delta), np.asarray(c)).shape, u, dtype=np.int8)
        return out if out.ndim else u

    return rule


def idle_policy():
    return _constant_policy(0)


def always_transmit_policy():
    return _constant_policy(1)
