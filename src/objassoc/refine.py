"""Landmark pose selection from associated measurements.

Rather than averaging poses, the landmark adopts the pose of the single
measurement whose normalized pairwise differences to all other associated
measurements are smallest. Angle and distance differences are clamped at
configurable maxima and combined as a weighted mean. The angles and
distances of all pairs come from one broadcast kernel over every ordered
pair, equal bit for bit to the scalar ``rotation_angle`` and
``translation_distance`` of each pair. The pose is a function
of the landmark's final measurement set, so the association run selects it
once, after the last group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ObjectMeasurement, Pose6D, pairwise_pose_differences
from .errors import InvalidConfigurationError, InvalidInputError


@dataclass(frozen=True)
class RefineParams:
    max_angle_deg: float
    max_distance_m: float
    angle_weight: float
    distance_weight: float

    def __post_init__(self):
        values = (self.max_angle_deg, self.max_distance_m, self.angle_weight, self.distance_weight)
        if not all(math.isfinite(v) for v in values):
            raise InvalidConfigurationError(f"refine parameters must be finite: {values}")
        if self.max_angle_deg <= 0.0 or self.max_distance_m <= 0.0:
            raise InvalidConfigurationError("difference maxima must be positive")
        if self.angle_weight < 0.0 or self.distance_weight < 0.0:
            raise InvalidConfigurationError("weights must be nonnegative")
        if abs(self.angle_weight + self.distance_weight - 1.0) > 1e-9:
            raise InvalidConfigurationError("angle and distance weights must sum to 1")


def pose_scores(
    measurements: Sequence[ObjectMeasurement], params: RefineParams
) -> np.ndarray:
    """Weighted mean normalized pose difference of each measurement to all others.

    The poses' orientations are read as they are, since a
    :class:`~objassoc.core.Pose6D` holds only unit ones, and every ordered
    pair is measured in one kernel,
    :func:`~objassoc.core.pairwise_pose_differences`, equal bit for bit to
    :func:`~objassoc.core.rotation_angle` and
    :func:`~objassoc.core.translation_distance` of the two poses; differences
    are clamped to 1 above the maxima, and each measurement's row is summed
    in index order. Requires at least two measurements; callers
    short-circuit singletons.
    """
    n = len(measurements)
    if n < 2:
        raise InvalidInputError("pose_scores requires at least two measurements")
    angle, dist = pairwise_pose_differences(
        np.array([m.pose.orientation for m in measurements]),
        np.array([m.pose.position for m in measurements]),
    )
    angle_sum = np.minimum(angle / params.max_angle_deg, 1.0).sum(axis=0)
    dist_sum = np.minimum(dist / params.max_distance_m, 1.0).sum(axis=0)
    return params.angle_weight * (angle_sum / (n - 1)) + params.distance_weight * (
        dist_sum / (n - 1)
    )


def select_reference_index(
    measurements: Sequence[ObjectMeasurement], params: RefineParams
) -> int:
    """Index of the measurement with minimal pose score.

    Ties break toward the smallest keyframe_id, then smallest measurement_id.
    """
    if not measurements:
        raise InvalidInputError("cannot select a pose from zero measurements")
    if len(measurements) == 1:
        return 0
    scores = pose_scores(measurements, params)
    return min(
        range(len(measurements)),
        key=lambda i: (float(scores[i]), measurements[i].keyframe_id,
                       measurements[i].measurement_id),
    )


def refine_pose(landmark, params: RefineParams) -> Pose6D:
    """Pose of the landmark's minimum-score measurement (never an average)."""
    measurements = landmark.measurements
    index = select_reference_index(measurements, params)
    return measurements[index].pose
