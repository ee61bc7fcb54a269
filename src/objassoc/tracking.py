"""Short-term association of measurements within one keyframe group.

Keyframes are processed in order. For each keyframe a cost matrix between
open tracks and new measurements, built as plain lists of floats, is solved
as a minimum-cost assignment (Hungarian method,
``assignment.linear_assignment``); unmatched measurements open new tracks.
The pairwise cost blends appearance distance with gated position and
rotation terms:

    cost = w_app * appearance_distance
         + w_pos * min(translation_distance / gate_radius, 1)
         + w_rot * min(rotation_angle / gate_angle, 1)

Pairs with mismatched class labels or cost above ``cost_threshold`` are
forbidden. This cost matrix is the only way a measurement joins a track.

Groups are short, so tracks simply skip keyframes with no matching
measurement; there is no motion-model coasting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .assignment import linear_assignment
from .core import (
    Keyframe,
    ObjectMeasurement,
    appearance_distance,
    rotation_angle,
    translation_distance,
)
from .errors import InvalidConfigurationError

# Large enough to dominate any sum of real costs, small enough to stay exact.
FORBIDDEN_COST = 1.0e6


@dataclass(frozen=True)
class TrackerParams:
    """Weights and gates for the within-group association cost."""

    w_app: float
    w_pos: float
    w_rot: float
    cost_threshold: float
    gate_radius: float
    gate_angle: float

    def __post_init__(self):
        values = (self.w_app, self.w_pos, self.w_rot, self.cost_threshold,
                  self.gate_radius, self.gate_angle)
        if not all(math.isfinite(v) for v in values):
            raise InvalidConfigurationError(f"tracker parameters must be finite: {values}")
        weights = (self.w_app, self.w_pos, self.w_rot)
        if any(w < 0.0 for w in weights):
            raise InvalidConfigurationError(f"cost weights must be nonnegative: {weights}")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise InvalidConfigurationError(f"cost weights must sum to 1: {weights}")
        if self.gate_radius <= 0.0 or self.gate_angle <= 0.0:
            raise InvalidConfigurationError("gates must be positive")
        if not 0.0 < self.cost_threshold <= 1.0:
            raise InvalidConfigurationError(
                f"cost_threshold must lie in (0, 1], got {self.cost_threshold}"
            )


@dataclass
class GroupTrack:
    """Measurements of one object tracked across one keyframe group."""

    group_index: int
    track_index: int
    class_label: str
    measurements: list[ObjectMeasurement] = field(default_factory=list)

    @property
    def last(self) -> ObjectMeasurement:
        return self.measurements[-1]

    @property
    def measurement_ids(self) -> frozenset[int]:
        return frozenset(m.measurement_id for m in self.measurements)


def track_cost(
    track: GroupTrack, measurement: ObjectMeasurement, params: TrackerParams
) -> Optional[float]:
    """Cost of appending ``measurement`` to ``track``, or None when forbidden.

    The cost is evaluated against the track's most recent measurement.
    """
    if measurement.class_label != track.class_label:
        return None
    head = track.last
    cost = (
        params.w_app * appearance_distance(head.appearance, measurement.appearance)
        + params.w_pos
        * min(translation_distance(head.pose, measurement.pose) / params.gate_radius, 1.0)
        + params.w_rot
        * min(rotation_angle(head.pose, measurement.pose) / params.gate_angle, 1.0)
    )
    if cost > params.cost_threshold:
        return None
    return cost


def solve_assignment(cost: Sequence[Sequence[float]]) -> list[tuple[int, int]]:
    """Minimum-total-cost assignment on a rectangular matrix (any 2-D sequence).

    Entries at or above FORBIDDEN_COST mark disallowed pairs; the solver may
    still select them when nothing cheaper exists, and such pairs are dropped
    from the returned matching.
    """
    rows, cols = linear_assignment(cost)
    return [(r, c) for r, c in zip(rows, cols) if cost[r][c] < FORBIDDEN_COST]


def associate_within_group(
    keyframes: Sequence[Keyframe], group_index: int, params: TrackerParams
) -> list[GroupTrack]:
    """Partition a group's measurements into tracks.

    Every input measurement ends up in exactly one track, measurements
    within a keyframe are processed in ascending measurement_id order, and
    no track holds two measurements from the same keyframe.
    """
    tracks: list[GroupTrack] = []
    for kf in keyframes:
        pool = sorted(kf.measurements, key=lambda m: m.measurement_id)
        matched: set[int] = set()
        if pool and tracks:
            cost = [
                [
                    FORBIDDEN_COST if (value := track_cost(track, m, params)) is None else value
                    for m in pool
                ]
                for track in tracks
            ]
            for r, c in solve_assignment(cost):
                tracks[r].measurements.append(pool[c])
                matched.add(c)
        for c, m in enumerate(pool):
            if c not in matched:
                tracks.append(GroupTrack(group_index, len(tracks), m.class_label, [m]))
    return tracks
