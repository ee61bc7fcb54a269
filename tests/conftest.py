"""Shared factories for building small hand-crafted fixtures."""

from __future__ import annotations

import math

import numpy as np
import pytest

from objassoc.core import (
    BoundingBox2D,
    Keyframe,
    ObjectMeasurement,
    Pose6D,
    quat_from_axis_angle,
)
from objassoc.config import RunConfig
from objassoc.mixture import MixtureStack, max_measurement_likelihood

# The stage bundles at the defaults, which RunConfig alone holds.
TRACKER = RunConfig().tracker_params()
ASSOC = RunConfig().assoc_params()
REFINE = RunConfig().refine_params()


def unit_appearance(dim: int = 8, index: int = 0) -> np.ndarray:
    e = np.zeros(dim)
    e[index] = 1.0
    return e


def make_pose(x=0.0, y=0.0, z=0.0, quat=None) -> Pose6D:
    if quat is None:
        quat = np.array([1.0, 0.0, 0.0, 0.0])
    return Pose6D(np.array([x, y, z], dtype=float), np.asarray(quat, dtype=float))


def quat_about(axis, degrees: float) -> np.ndarray:
    return quat_from_axis_angle(axis, math.radians(degrees))


def make_measurement(
    mid: int,
    kf_id: int = 0,
    cls: str = "door",
    pos=(0.0, 0.0, 0.0),
    quat=None,
    appearance=None,
    gt=None,
) -> ObjectMeasurement:
    if appearance is None:
        appearance = unit_appearance()
    return ObjectMeasurement(
        measurement_id=mid,
        keyframe_id=kf_id,
        class_label=cls,
        bbox=BoundingBox2D(10.0, 10.0, 50.0, 50.0),
        pose=make_pose(*pos, quat=quat),
        appearance=np.asarray(appearance, dtype=float),
        gt_landmark_id=gt,
    )


def make_keyframe(kf_id: int, measurements=(), timestamp=None) -> Keyframe:
    return Keyframe(
        keyframe_id=kf_id,
        timestamp=kf_id / 30.0 if timestamp is None else timestamp,
        camera_pose=make_pose(),
        measurements=tuple(measurements),
    )


def score_alone(candidate, gmm) -> float:
    """The candidate's best density under one mixture, scored in a stack of its own."""
    (score,) = max_measurement_likelihood(candidate, MixtureStack([gmm]))
    return score


def random_unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def build_noisy_landmark(rng: np.random.Generator, size: int):
    """A true pose plus ``size`` noisy measurements of it, some gross outliers.

    Mimics a landmark whose pose predictions are mostly decent with
    occasional detector failures; returns (true_pose, measurements).
    """
    true_pos = rng.uniform(-5.0, 5.0, size=3)
    true_quat = random_unit_quaternion(rng)
    true_pose = Pose6D(true_pos, true_quat)
    measurements = []
    for i in range(size):
        if rng.uniform() < 0.3:
            pos = true_pos + rng.normal(scale=0.5, size=3)
            axis = rng.normal(size=3)
            angle = rng.uniform(60.0, 180.0)
            quat = _mul(quat_about(axis, angle), true_quat)
        else:
            pos = true_pos + rng.normal(scale=0.05, size=3)
            axis = rng.normal(size=3)
            angle = rng.normal(scale=2.0)
            quat = _mul(quat_about(axis, angle), true_quat)
        measurements.append(
            make_measurement(i + 1, kf_id=i, pos=tuple(pos), quat=quat / np.linalg.norm(quat))
        )
    return true_pose, measurements


def _mul(a, b):
    from objassoc.core import quat_multiply

    return quat_multiply(a, b)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
