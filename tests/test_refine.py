import math
from dataclasses import replace

import numpy as np
import pytest

from objassoc.association import GlobalLandmark
from objassoc.core import quat_multiply, rotation_angle, translation_distance
from objassoc.errors import InvalidConfigurationError, InvalidInputError
from objassoc.refine import (
    pose_scores,
    refine_pose,
    select_reference_index,
)

from conftest import (
    REFINE,
    build_noisy_landmark,
    make_measurement,
    quat_about,
    random_unit_quaternion,
)


def oracle_score(index, measurements, params):
    """Independent re-derivation of the score: explicit clamping and averaging."""
    angles = []
    dists = []
    for l, other in enumerate(measurements):
        if l == index:
            continue
        theta = rotation_angle(measurements[index].pose, other.pose)
        angles.append(1.0 if theta > params.max_angle_deg else theta / params.max_angle_deg)
        phi = translation_distance(measurements[index].pose, other.pose)
        dists.append(1.0 if phi > params.max_distance_m else phi / params.max_distance_m)
    n = len(measurements)
    return params.angle_weight * (sum(angles) / (n - 1)) + params.distance_weight * (
        sum(dists) / (n - 1)
    )


def oracle_argmin(measurements, params):
    scored = [
        (oracle_score(i, measurements, params), m.keyframe_id, m.measurement_id, i)
        for i, m in enumerate(measurements)
    ]
    return min(scored)[3]


def landmark_of(measurements) -> GlobalLandmark:
    lm = GlobalLandmark(landmark_id=1, class_label=measurements[0].class_label)
    lm.measurements = list(measurements)
    lm.measurement_ids = frozenset(m.measurement_id for m in measurements)
    return lm


def pair_score(params, pos=(0.0, 0.0, 0.0), quat=(1.0, 0.0, 0.0, 0.0)):
    """Both scores of a pair: one measurement at the origin, one at (pos, quat)."""
    ms = [make_measurement(1, kf_id=0), make_measurement(2, kf_id=1, pos=pos, quat=quat)]
    scores = pose_scores(ms, params)
    assert scores[0] == scores[1]
    return scores[0]


class TestRefineParams:
    @pytest.mark.parametrize(
        "field, value",
        [("max_angle_deg", math.nan), ("max_distance_m", math.inf), ("angle_weight", math.nan)],
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidConfigurationError):
            replace(REFINE, **{field: value})


class TestNormalization:
    """With one weight at 1 a pair's score is that difference, normalized."""

    ANGLE_ONLY = replace(REFINE, max_angle_deg=45.0, angle_weight=1.0, distance_weight=0.0)
    DISTANCE_ONLY = replace(REFINE, max_distance_m=1.0, angle_weight=0.0, distance_weight=1.0)

    def test_angle_branches(self):
        assert pair_score(self.ANGLE_ONLY) == 0.0
        # clamp branch at 2A
        assert pair_score(self.ANGLE_ONLY, quat=quat_about([0, 0, 1], 90.0)) == 1.0

    def test_distance_branches(self):
        assert pair_score(self.DISTANCE_ONLY) == 0.0
        assert pair_score(self.DISTANCE_ONLY, pos=(0.5, 0.0, 0.0)) == 0.5
        # boundary is the linear branch
        assert pair_score(self.DISTANCE_ONLY, pos=(1.0, 0.0, 0.0)) == 1.0
        assert pair_score(self.DISTANCE_ONLY, pos=(3.0, 0.0, 0.0)) == 1.0  # clamp branch


class TestPoseScore:
    def test_identical_measurements_score_zero(self):
        ms = [make_measurement(i, kf_id=i, pos=(1, 2, 3)) for i in range(1, 4)]
        params = REFINE
        for k in range(3):
            assert pose_scores(ms, params)[k] == 0.0

    def test_hand_arithmetic_pair(self):
        params = replace(REFINE, max_angle_deg=30.0, max_distance_m=2.0)
        ms = [
            make_measurement(1, kf_id=0, pos=(0, 0, 0)),
            make_measurement(2, kf_id=1, pos=(1.0, 0, 0), quat=quat_about([0, 0, 1], 30.0)),
        ]
        # angle diff = A (linear branch boundary -> 1.0), distance = B/2 -> 0.5
        for k in (0, 1):
            assert pose_scores(ms, params)[k] == pytest.approx(0.4 * 1.0 + 0.6 * 0.5, abs=1e-12)

    def test_requires_two_measurements(self):
        with pytest.raises(InvalidInputError):
            pose_scores([make_measurement(1)], REFINE)

    def test_matches_oracle_on_random_sets(self, rng):
        params = REFINE
        for _ in range(200):
            n = int(rng.integers(2, 11))
            ms = [
                make_measurement(
                    i + 1,
                    kf_id=i,
                    pos=tuple(rng.uniform(-2, 2, size=3)),
                    quat=random_unit_quaternion(rng),
                )
                for i in range(n)
            ]
            for k in range(n):
                assert pose_scores(ms, params)[k] == oracle_score(k, ms, params)

    def test_matches_oracle_on_large_sets(self, rng):
        """Landmarks of a slow camera under the flat baseline hold dozens of measurements."""
        params = REFINE
        for _ in range(3):
            n = int(rng.integers(30, 91))
            _, ms = build_noisy_landmark(rng, n)
            scores = pose_scores(ms, params)
            assert scores.shape == (n,)
            for k in range(n):
                assert scores[k] == oracle_score(k, ms, params)
            assert select_reference_index(ms, params) == oracle_argmin(ms, params)


class TestRefinePose:
    def test_singleton_returns_its_pose(self):
        m = make_measurement(1, pos=(4, 5, 6))
        pose = refine_pose(landmark_of([m]), REFINE)
        assert np.array_equal(pose.position, m.pose.position)

    def test_empty_rejected(self):
        empty = GlobalLandmark(landmark_id=1, class_label="door")
        with pytest.raises(InvalidInputError):
            refine_pose(empty, REFINE)

    def test_collinear_middle_wins(self):
        params = replace(REFINE, max_angle_deg=45.0, max_distance_m=5.0)
        ms = [
            make_measurement(1, kf_id=0, pos=(0, 0, 0)),
            make_measurement(2, kf_id=1, pos=(1, 0, 0)),
            make_measurement(3, kf_id=2, pos=(2, 0, 0)),
        ]
        # outer score 0.6*(1.5/5) = 0.18, middle 0.6*(1/5) = 0.12
        assert pose_scores(ms, params)[0] == pytest.approx(0.18, abs=1e-12)
        assert pose_scores(ms, params)[1] == pytest.approx(0.12, abs=1e-12)
        pose = refine_pose(landmark_of(ms), params)
        assert pose.position[0] == 1.0

    def test_selected_pose_is_a_measurement_pose(self, rng):
        for _ in range(50):
            _, ms = build_noisy_landmark(rng, int(rng.integers(2, 8)))
            pose = refine_pose(landmark_of(ms), REFINE)
            assert any(
                np.array_equal(pose.position, m.pose.position)
                and np.array_equal(pose.orientation, m.pose.orientation)
                for m in ms
            )

    def test_permutation_of_measurements_keeps_choice(self, rng):
        _, ms = build_noisy_landmark(rng, 7)
        params = REFINE
        chosen = refine_pose(landmark_of(ms), params)
        for _ in range(10):
            order = rng.permutation(len(ms))
            shuffled = [ms[i] for i in order]
            again = refine_pose(landmark_of(shuffled), params)
            assert np.array_equal(chosen.position, again.position)

    def test_rigid_transform_keeps_argmin(self, rng):
        params = REFINE
        for _ in range(30):
            _, ms = build_noisy_landmark(rng, 6)
            base_index = select_reference_index(ms, params)

            shift = rng.uniform(-4, 4, size=3)
            turn = random_unit_quaternion(rng)
            rot = _quat_matrix(turn)
            moved = [
                make_measurement(
                    m.measurement_id,
                    kf_id=m.keyframe_id,
                    pos=tuple(rot @ m.pose.position + shift),
                    quat=quat_multiply(turn, m.pose.orientation),
                )
                for m in ms
            ]
            assert select_reference_index(moved, params) == base_index

    def test_exact_tie_breaks_on_keyframe_then_measurement(self):
        ms = [
            make_measurement(9, kf_id=4, pos=(0, 0, 0)),
            make_measurement(2, kf_id=4, pos=(0, 0, 0)),
            make_measurement(5, kf_id=1, pos=(0, 0, 0)),
        ]
        assert select_reference_index(ms, REFINE) == 2  # smallest keyframe_id

    def test_argmin_matches_oracle(self, rng):
        params = REFINE
        for _ in range(200):
            _, ms = build_noisy_landmark(rng, int(rng.integers(2, 11)))
            assert select_reference_index(ms, params) == oracle_argmin(ms, params)


def _quat_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
