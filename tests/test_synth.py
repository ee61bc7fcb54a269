import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objassoc import synth
from objassoc.core import vector_norm
from objassoc.errors import InvalidConfigurationError, InvalidInputError
from objassoc.records import write_dataset
from objassoc.synth import (
    BASE_STEP_M,
    MAX_FRAMES,
    PRESET_NAMES,
    CameraPath,
    LandmarkSpec,
    ScenarioConfig,
    _walk_path,
    generate,
    preset,
)


def reference_view(cam_pos, yaw, target, config):
    """Whether a camera at ``cam_pos`` facing ``yaw`` sees ``target``, by scalar geometry.

    Also returns the target's relative distance to the nearer of the range
    and field-of-view edges (inf on the camera, which sees nothing there).
    """
    rel = [float(t) - float(c) for t, c in zip(target, cam_pos)]
    dist = math.hypot(*rel)
    if dist == 0.0:
        return False, math.inf
    dot = math.fsum([rel[0] * math.cos(yaw), rel[1] * math.sin(yaw)])
    angle = math.degrees(math.acos(min(max(dot / dist, -1.0), 1.0)))
    fov, max_range = config.fov_half_angle_deg, config.max_range
    seen = dist <= max_range and angle <= fov
    return seen, min(abs(dist - max_range) / max_range, abs(angle - fov) / fov)


def simple_config(**overrides):
    defaults = dict(
        landmarks=(
            LandmarkSpec(
                class_label="door",
                position=(4.0, 0.5, 1.2),
                orientation=(1.0, 0.0, 0.0, 0.0),
                similarity_group=0,
            ),
        ),
        camera=CameraPath(waypoints=((0.0, 0.0, 1.2), (0.9, 0.0, 1.2)), speed_factor=1.0),
        keyframe_stride=1,
        fov_half_angle_deg=30.0,
        max_range=7.0,
        pos_noise_sigma_m=0.0,
        rot_noise_sigma_deg=0.0,
        appearance_noise_sigma=0.0,
        instance_distinctness=0.0,
        dropout_rate=0.0,
        seed=0,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestGenerate:
    def test_noise_free_always_visible(self):
        dataset = generate(simple_config())
        assert len(dataset.keyframes) == 10
        assert dataset.measurement_count == 10
        for kf in dataset.keyframes:
            (m,) = kf.measurements
            assert m.gt_landmark_id == 1
            assert np.array_equal(m.pose.position, [4.0, 0.5, 1.2])
            assert np.array_equal(m.pose.orientation, [1.0, 0.0, 0.0, 0.0])

    def test_full_dropout_yields_no_measurements(self):
        dataset = generate(simple_config(dropout_rate=1.0))
        assert dataset.measurement_count == 0
        assert len(dataset.keyframes) == 10

    def test_quick_has_fewer_keyframes_than_slow(self):
        slow = generate(preset("aisle_slow"))
        quick = generate(preset("aisle_quick"))
        assert len(quick.keyframes) < len(slow.keyframes)

    def test_determinism_byte_identical(self, tmp_path):
        config = replace(preset("aisle_quick"), seed=3)
        p1, p2 = tmp_path / "a.assoc.jsonl", tmp_path / "b.assoc.jsonl"
        write_dataset(generate(config), p1)
        write_dataset(generate(config), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_visibility_soundness(self):
        config = replace(preset("aisle_slow"), seed=4)
        dataset = generate(config)
        truth = {gt.gt_landmark_id: np.asarray(gt.pose.position) for gt in dataset.gt_landmarks}
        assert dataset.measurement_count > 0
        for kf in dataset.keyframes:
            cam = kf.camera_pose
            w, x, y, z = cam.orientation
            yaw = math.atan2(2 * (w * z + x * y), 1 - 2 * (y * y + z * z))
            for m in kf.measurements:
                seen, _ = reference_view(cam.position, yaw, truth[m.gt_landmark_id], config)
                assert seen

    def test_at_most_one_measurement_per_object_per_keyframe(self):
        dataset = generate(replace(preset("aisle_slow"), seed=9))
        for kf in dataset.keyframes:
            gts = [m.gt_landmark_id for m in kf.measurements]
            assert len(gts) == len(set(gts))

    def test_noise_statistics_within_ten_percent(self):
        sigma_pos = 0.08
        sigma_rot_deg = 3.0
        config = simple_config(
            camera=CameraPath(waypoints=((0.0, 0.0, 1.2), (0.5, 0.0, 1.2)), speed_factor=0.0005),
            pos_noise_sigma_m=sigma_pos,
            rot_noise_sigma_deg=sigma_rot_deg,
            seed=17,
        )
        dataset = generate(config)
        assert dataset.measurement_count >= 10_000
        true_pos = np.array([4.0, 0.5, 1.2])
        pos_errs = []
        rot_vecs = []
        from objassoc.core import quat_conjugate, quat_multiply, quat_to_rotation_vector

        for kf in dataset.keyframes:
            for m in kf.measurements:
                pos_errs.append(np.asarray(m.pose.position) - true_pos)
                rel = quat_multiply(m.pose.orientation, quat_conjugate([1.0, 0, 0, 0]))
                rot_vecs.append(quat_to_rotation_vector(rel))
        pos_std = np.std(np.concatenate(pos_errs))
        rot_std_deg = math.degrees(np.std(np.concatenate(rot_vecs)))
        assert abs(pos_std - sigma_pos) / sigma_pos < 0.10
        assert abs(rot_std_deg - sigma_rot_deg) / sigma_rot_deg < 0.10

    def test_zero_length_path_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            generate(
                simple_config(
                    camera=CameraPath(
                        waypoints=((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)), speed_factor=1.0
                    )
                )
            )

    @pytest.mark.parametrize("seed", [-3, 1.0, True, "0"])
    def test_seed_must_be_an_integer_of_at_least_zero(self, seed):
        with pytest.raises(InvalidConfigurationError, match="seed"):
            simple_config(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert simple_config(seed=np.int64(4)).seed == 4

    def test_outliers_are_gross_rotations(self):
        config = simple_config(
            camera=CameraPath(waypoints=((0.0, 0.0, 1.2), (0.5, 0.0, 1.2)), speed_factor=0.01),
            rot_outlier_rate=1.0,
            rot_outlier_min_deg=90.0,
            seed=3,
        )
        dataset = generate(config)
        from objassoc.core import rotation_angle
        from conftest import make_pose

        true_pose = make_pose(4.0, 0.5, 1.2)
        for kf in dataset.keyframes:
            for m in kf.measurements:
                assert rotation_angle(m.pose, true_pose) >= 90.0 - 1e-6


FLOAT_FIELDS = [
    "confusable_gap", "fov_half_angle_deg", "max_range", "pos_noise_sigma_m",
    "rot_noise_sigma_deg", "appearance_noise_sigma", "instance_distinctness",
    "dropout_rate", "rot_outlier_rate", "rot_outlier_min_deg",
]


class TestScenarioChecks:
    """A scenario that generate could not use is refused when it is built."""

    def test_non_unit_orientation_refused_by_the_spec(self):
        with pytest.raises(InvalidInputError, match="unit quaternion"):
            LandmarkSpec("door", (4.0, 0.5, 1.2), (1.0, 1.0, 1.0, 1.0), 0)

    def test_zero_length_path_refused_by_the_camera_path(self):
        with pytest.raises(InvalidConfigurationError, match="zero length"):
            CameraPath(waypoints=((1.0, 1.0, 1.0), (1, 1, 1), (1.0, 1.0, 1.0)))

    def test_path_back_to_its_start_accepted(self):
        CameraPath(waypoints=((1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 1.0, 1.0)))

    def test_frame_count_bounded_by_the_camera_path(self):
        # 2 m at 0.1 m * speed factor per frame: MAX_FRAMES frames at this speed factor
        limit = 2.0 / (BASE_STEP_M * MAX_FRAMES)
        CameraPath(waypoints=((0.0, 0.0, 1.0), (2.0, 0.0, 1.0)), speed_factor=limit * 2)
        with pytest.raises(InvalidConfigurationError, match="frames"):
            CameraPath(waypoints=((0.0, 0.0, 1.0), (2.0, 0.0, 1.0)), speed_factor=limit / 2)
        with pytest.raises(InvalidConfigurationError, match="frames"):
            CameraPath(waypoints=((0.0, 0.0, 1.0), (2.0, 0.0, 1.0)), speed_factor=1e-9)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_a_non_finite_float_is_refused_by_the_scenario(self, name, value):
        message = rf"^{name} must be a finite number, got"
        with pytest.raises(InvalidConfigurationError, match=message):
            simple_config(**{name: value})

    @pytest.mark.parametrize("value", ["7", True])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_a_string_or_bool_float_is_refused_by_the_scenario(self, name, value):
        message = rf"^{name} must be a finite number, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidConfigurationError, match=message):
            simple_config(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_speed_factor_is_refused_by_the_camera_path(self, value):
        with pytest.raises(InvalidConfigurationError, match="^speed_factor must be positive"):
            CameraPath(waypoints=((0.0, 0.0, 1.0), (2.0, 0.0, 1.0)), speed_factor=value)

    @pytest.mark.parametrize("value", ["1", True])
    def test_a_string_or_bool_speed_factor_is_refused_by_the_camera_path(self, value):
        message = rf"^speed_factor must be positive and finite, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidConfigurationError, match=message):
            CameraPath(waypoints=((0.0, 0.0, 1.0), (2.0, 0.0, 1.0)), speed_factor=value)

    def test_a_numeric_class_label_is_refused_by_the_spec(self):
        message = "^class_label must be a string, got 5$"
        with pytest.raises(InvalidConfigurationError, match=message):
            LandmarkSpec(5, (4.0, 0.5, 1.2), (1.0, 0.0, 0.0, 0.0), 0)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("camera", "c", "^camera must be a CameraPath, got 'c'$"),
            ("landmarks", ("x",), "^landmarks must be LandmarkSpecs, got 'x'$"),
        ],
    )
    def test_a_camera_or_landmark_of_the_wrong_class_is_refused_by_the_scenario(
        self, name, value, message
    ):
        with pytest.raises(InvalidConfigurationError, match=message):
            replace(preset("aisle_quick"), **{name: value})

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(
                lambda: simple_config(landmarks=5),
                "^landmarks must be a sequence of LandmarkSpecs, got 5$",
                id="landmarks_int",
            ),
            pytest.param(
                lambda: CameraPath(waypoints=5),
                "^waypoints must be a sequence of waypoints, got 5$",
                id="waypoints_int",
            ),
            pytest.param(
                lambda: CameraPath(waypoints=None),
                "^waypoints must be a sequence of waypoints, got None$",
                id="waypoints_none",
            ),
        ],
    )
    def test_a_landmark_or_waypoint_list_that_is_no_sequence_is_refused_by_name(
        self, build, message
    ):
        with pytest.raises(InvalidConfigurationError, match=message):
            build()

    @pytest.mark.parametrize("fov", [90.0, 120.0, 180.0, 0.0, -30.0])
    def test_a_field_of_view_a_pinhole_camera_cannot_have_is_refused_by_the_scenario(self, fov):
        # at 90 degrees a landmark abeam would project at depth 0
        with pytest.raises(InvalidConfigurationError, match="^fov_half_angle_deg must lie in"):
            ScenarioConfig(
                landmarks=(LandmarkSpec("door", (0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0), 0),),
                camera=CameraPath(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))),
                fov_half_angle_deg=fov,
            )

    def test_appearance_dim_below_group_count_refused_by_the_scenario(self):
        specs = tuple(
            LandmarkSpec("door", (4.0, 0.5 * g, 1.2), (1.0, 0.0, 0.0, 0.0), g) for g in range(3)
        )
        simple_config(landmarks=specs, appearance_dim=3)
        with pytest.raises(InvalidConfigurationError, match="appearance_dim"):
            simple_config(landmarks=specs, appearance_dim=2)


class TestPresets:
    def test_aisle_slow_has_six_ground_truth_objects(self):
        dataset = generate(preset("aisle_slow"))
        assert len(dataset.gt_landmarks) == 6

    def test_office_desk_has_five_ground_truth_objects(self):
        dataset = generate(preset("office_desk"))
        assert len(dataset.gt_landmarks) == 5

    def test_aisle_variants_share_layout(self):
        slow = preset("aisle_slow")
        quick = preset("aisle_quick")
        assert slow.landmarks == quick.landmarks
        assert slow.camera.waypoints == quick.camera.waypoints
        assert quick.camera.speed_factor > slow.camera.speed_factor

    def test_unknown_preset_rejected(self):
        with pytest.raises(InvalidInputError):
            preset("warehouse")

    def test_confusable_pairs_share_appearance_groups(self):
        config = preset("aisle_slow")
        groups = {}
        for spec in config.landmarks:
            groups.setdefault(spec.similarity_group, []).append(np.asarray(spec.position))
        for members in groups.values():
            assert len(members) == 2
            gap = np.linalg.norm(members[0] - members[1])
            assert gap == pytest.approx(config.confusable_gap, abs=1e-9)


UNIT = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def edge_scenes(draw):
    """Scenes with landmarks on, and a relative 1e-9 to 1e-2 either side of, the view's edges.

    Coordinates are scaled by 1, 1e-100 or +-1e140. One landmark sits on a
    keyframe's camera; others lie at a keyframe's range, or on the edge of
    its field of view, each nudged in or out by a relative amount.
    """
    scale = draw(st.sampled_from([1.0, 1e-100, 1e140, -1e140]))
    points = [np.array([draw(UNIT) for _ in range(3)])]
    for _ in range(draw(st.integers(1, 2))):
        points.append(points[-1] + np.array([draw(UNIT) for _ in range(3)]))
    length = sum(vector_norm(b - a) for a, b in zip(points, points[1:]))
    if length < 0.5:
        points[-1] = points[-1] + np.array([1.0, 0.0, 0.0])
        length += 1.0
    waypoints = tuple(tuple(float(c) * scale for c in p) for p in points)
    # between 5 and 60 frames, whatever the path's length
    speed_factor = abs(scale) * length / (BASE_STEP_M * draw(st.integers(5, 60)))
    camera = CameraPath(waypoints=waypoints, speed_factor=speed_factor)
    stride = draw(st.integers(1, 4))
    frames = _walk_path(camera, stride)
    max_range = draw(st.floats(0.5, 20.0)) * abs(scale)
    fov = draw(st.floats(1.0, 89.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def nudge():
        return 1.0 + draw(st.sampled_from([1e-9, 1e-7, 1e-4, 1e-2])) * draw(
            st.sampled_from([1.0, -1.0])
        )

    _, cam_pos, _ = frames[draw(st.integers(0, len(frames) - 1))]
    positions = [cam_pos]
    positions += [
        np.array([draw(UNIT) for _ in range(3)]) * scale for _ in range(draw(st.integers(0, 3)))
    ]
    for _ in range(draw(st.integers(1, 4))):
        _, cam_pos, yaw = frames[draw(st.integers(0, len(frames) - 1))]
        forward = np.array([math.cos(yaw), math.sin(yaw), 0.0])
        side = rng.normal(size=3)
        side -= side.dot(forward) * forward
        side /= vector_norm(side)
        direction = rng.normal(size=3)
        positions.append(cam_pos + max_range * nudge() * direction / vector_norm(direction))
        edge = math.radians(fov * nudge())
        reach = max_range * rng.uniform(0.1, 0.99)
        positions.append(cam_pos + reach * (math.cos(edge) * forward + math.sin(edge) * side))
    landmarks = tuple(
        LandmarkSpec("door", tuple(map(float, p)), (1.0, 0.0, 0.0, 0.0), draw(st.integers(0, 2)))
        for p in positions
    )
    return ScenarioConfig(
        landmarks=landmarks,
        camera=camera,
        keyframe_stride=stride,
        fov_half_angle_deg=fov,
        max_range=max_range,
        rot_outlier_rate=draw(st.sampled_from([0.0, 0.2])),
        seed=draw(st.integers(0, 2**16)),
    )


class TestVisibility:
    """One array pass decides which landmarks each keyframe sees."""

    @settings(max_examples=150, deadline=None)
    @given(edge_scenes())
    def test_generate_measures_what_the_scalar_reference_sees(self, config):
        dataset = generate(config)
        frames = _walk_path(config.camera, config.keyframe_stride)
        assert [kf.keyframe_id for kf in dataset.keyframes] == [index for index, _, _ in frames]
        judged = 0
        for kf, (_, cam_pos, yaw) in zip(dataset.keyframes, frames):
            measured = {m.gt_landmark_id for m in kf.measurements}
            for gt_id, spec in enumerate(config.landmarks, start=1):
                seen, edge_gap = reference_view(cam_pos, yaw, spec.position, config)
                if edge_gap >= 1e-9:
                    assert (gt_id in measured) == seen, (kf.keyframe_id, gt_id)
                    judged += 1
        assert judged > 0

    def test_a_landmark_on_the_camera_or_at_an_overflowing_offset_is_unseen(self):
        config = simple_config(max_range=1e300, fov_half_angle_deg=30.0)
        frames = [(0, np.zeros(3), 0.0), (5, np.array([-1e308, 0.0, 0.0]), 0.0)]
        # on the first camera; a squared distance that overflows; an offset
        # that itself overflows, from the second camera; and one seen landmark
        targets = np.array([[0.0, 0, 0], [1e155, 0, 0], [1e308, 0, 0], [2.0, 0, 0]])
        assert synth._visible_landmarks(frames, targets, config) == [[3], []]

    def test_a_pinhole_camera_sees_only_landmarks_in_front_of_it(self):
        # abeam of, or just ahead of or behind, a camera at z = 1.2 moving along x
        landmarks = tuple(
            LandmarkSpec("door", (x, side, z), (1.0, 0.0, 0.0, 0.0), 0)
            for x in (0.2, 0.21, 0.22, 0.5, 0.52)
            for side in (1.0, -1.0)
            for z in (1.2, 1.25)
        )
        config = simple_config(landmarks=landmarks, fov_half_angle_deg=89.0)
        dataset = generate(config)
        truth = {gt.gt_landmark_id: gt.pose.position for gt in dataset.gt_landmarks}
        steepest = 0.0
        for kf in dataset.keyframes:
            cam = kf.camera_pose.position
            for m in kf.measurements:
                rel = truth[m.gt_landmark_id] - cam
                depth = float(rel[0])  # the camera faces +x
                assert depth > 0.0
                steepest = max(steepest, math.degrees(math.acos(depth / vector_norm(rel))))
        assert steepest > 88.0


class TestWalkPath:
    def test_a_tiny_path_walks_the_frames_of_its_own_length(self):
        # run in a subprocess with a time bound: an endless walk fails, not hangs
        code = (
            "from objassoc.synth import CameraPath, _walk_path\n"
            "camera = CameraPath(((0.0, 0.0, 0.0), (1e-159, 0.0, 0.0)), speed_factor=1e-160)\n"
            "print(len(_walk_path(camera, 1)))\n"
        )
        paths = (str(Path(synth.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env
        )
        assert done.returncode == 0, done.stderr
        # 1e-159 m at 1e-161 m per frame: frames 0 to 100. The squared length,
        # 1e-318, is subnormal, so the segment is measured by its hypotenuse.
        assert int(done.stdout) == 101
