"""Invariants of the association pipeline on small random scenarios.

Hypothesis draws a handful of objects of two classes, 0.2-0.8 m apart so
that neighbours of one class are easily confused, a camera that sees a random subset of them per keyframe,
and a grouping and association seed; every scenario goes through
``run_association`` and the written map file. The geodesic rotation angle,
which pose selection scores, is checked on random unit quaternions. Datasets
of arbitrary labels, ids and float values, and the maps of the
scenarios, must read back from their record files exactly as written. The
Gibbs sampler's plain-float inverse-CDF draw from unnormalised weights must
pick the index that ``np.searchsorted`` finds for the same ``random()`` value
in ``np.cumsum`` of the weights divided by its last entry, leave the generator
where that one value leaves it, and never pick a zero weight.
"""

import json
import math
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from objassoc import records
from objassoc.association import draw_index, run_association
from objassoc.config import RunConfig, config_to_mapping
from objassoc.core import BoundingBox2D, Keyframe, ObjectMeasurement, Pose6D, rotation_angle
from objassoc.errors import NumericalError
from objassoc.synth import PRESET_NAMES, Dataset, GroundTruthLandmark, preset

from conftest import make_keyframe, make_measurement, make_pose, quat_about

CLASSES = ("door", "chair")


@st.composite
def scenarios(draw):
    """(keyframes, config) for 1-4 objects seen over 1-10 keyframes."""
    n_objects = draw(st.integers(1, 4))
    n_keyframes = draw(st.integers(1, 10))
    noise_seed = draw(st.integers(0, 2**16))
    group_size = draw(st.integers(1, 5))
    overlap = draw(st.integers(0, group_size - 1))
    assoc_seed = draw(st.integers(0, 99))
    config = RunConfig(group_size=group_size, group_overlap=overlap, assoc_seed=assoc_seed)

    spacing = draw(st.sampled_from([0.2, 0.4, 0.8]))
    classes = draw(st.lists(st.sampled_from(CLASSES), min_size=n_objects, max_size=n_objects))

    rng = np.random.default_rng(noise_seed)
    objects = [
        (cls, np.array([spacing * i, 2.0, 1.0]), rng.uniform(-180.0, 180.0))
        for i, cls in enumerate(classes)
    ]
    keyframes, next_id = [], 1
    for kf in range(n_keyframes):
        measurements = []
        for index, (cls, position, yaw) in enumerate(objects):
            if rng.uniform() < 0.3:
                continue
            appearance = np.zeros(8)
            appearance[index % 2] = 1.0
            appearance += rng.normal(scale=0.05, size=8)
            measurements.append(
                make_measurement(
                    next_id,
                    kf_id=kf,
                    cls=cls,
                    pos=tuple(position + rng.normal(scale=0.05, size=3)),
                    quat=quat_about([0, 0, 1], yaw + rng.normal(scale=2.0)),
                    appearance=appearance / np.linalg.norm(appearance),
                )
            )
            next_id += 1
        keyframes.append(make_keyframe(kf, measurements))
    return keyframes, config


def associate(keyframes, config):
    return run_association(
        keyframes,
        group_size=config.group_size,
        group_overlap=config.group_overlap,
        tracker_params=config.tracker_params(),
        assoc_params=config.assoc_params(),
        base_cov=config.base_cov(),
        refine_params=config.refine_params(),
    )


def map_bytes(result, config, directory: Path) -> bytes:
    path = directory / "map.assoc.jsonl"
    records.write_map(result.landmarks, result.assignments, config_to_mapping(config), path)
    return path.read_bytes()


PROPERTY_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@PROPERTY_SETTINGS
@given(scenarios())
def test_pipeline_invariants(scenario):
    keyframes, config = scenario
    keyframe_of = {m.measurement_id: kf.keyframe_id for kf in keyframes for m in kf.measurements}
    result = associate(keyframes, config)
    with tempfile.TemporaryDirectory() as tmp:
        written = map_bytes(result, config, Path(tmp))

    # every measurement is assigned exactly once, to a landmark that holds it
    rows = Counter(
        json.loads(line)["payload"]["measurement_id"]
        for line in written.decode("utf-8").splitlines()
        if json.loads(line)["kind"] == "assignment"
    )
    assert set(rows) == set(keyframe_of)
    assert all(n == 1 for n in rows.values())
    holders = {lm.landmark_id: lm.measurement_ids for lm in result.landmarks}
    assert all(mid in holders[lid] for mid, lid in result.assignments.items())

    for lm in result.landmarks:
        # no landmark holds two detections from one keyframe
        keyframes_seen = [keyframe_of[mid] for mid in lm.measurement_ids]
        assert len(keyframes_seen) == len(set(keyframes_seen))
        # no two tracks of one group share a landmark
        groups = [g for g, _ in lm.associated_tracks]
        assert len(groups) == len(set(groups))
        assert {m.class_label for m in lm.measurements} == {lm.class_label}


@PROPERTY_SETTINGS
@given(scenarios())
def test_same_seed_same_map_bytes(scenario):
    keyframes, config = scenario
    with tempfile.TemporaryDirectory() as tmp:
        first = map_bytes(associate(keyframes, config), config, Path(tmp))
        second = map_bytes(associate(keyframes, config), config, Path(tmp))
    assert first == second


@st.composite
def unit_quaternions(draw):
    q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    norm = float(np.linalg.norm(q))
    if norm < 1e-3:
        q, norm = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    return make_pose(quat=q / norm)


def acos_angle(a, b) -> float:
    """The textbook form 2*acos(|<q_a, q_b>|), in degrees."""
    dot = min(abs(float(np.dot(a.orientation, b.orientation))), 1.0)
    return math.degrees(2.0 * math.acos(dot))


ANGLE_SETTINGS = settings(max_examples=300, deadline=None)


@ANGLE_SETTINGS
@given(unit_quaternions())
def test_rotation_angle_to_itself_is_zero(p):
    assert rotation_angle(p, p) == 0.0


@ANGLE_SETTINGS
@given(unit_quaternions(), unit_quaternions())
def test_rotation_angle_symmetric_and_in_range(a, b):
    angle = rotation_angle(a, b)
    assert angle == rotation_angle(b, a)
    assert 0.0 <= angle <= 180.0


@ANGLE_SETTINGS
@given(unit_quaternions(), unit_quaternions())
def test_rotation_angle_agrees_with_acos_form(a, b):
    reference = acos_angle(a, b)
    # near 0 acos turns a dot rounded below 1 into up to ~4e-6 degrees, so
    # agreement is only checked where acos is well conditioned
    if reference >= 0.01:
        assert abs(rotation_angle(a, b) - reference) <= 1e-9


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def unit_vectors(draw, dim):
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    norm = float(np.linalg.norm(v))
    if norm < 1e-3:
        v, norm = np.eye(dim)[0], 1.0
    return v / norm


@st.composite
def poses(draw):
    position = draw(st.lists(FINITE, min_size=3, max_size=3))
    return Pose6D(np.array(position), draw(unit_vectors(4)))


@st.composite
def datasets(draw):
    """Datasets with free-form labels, sparse ids and any finite floats."""
    gt_ids = draw(st.lists(st.integers(0, 10**9), max_size=3, unique=True))
    gt_landmarks = tuple(
        GroundTruthLandmark(gt_id, draw(st.text(max_size=8)), draw(poses())) for gt_id in gt_ids
    )
    keyframe_ids = sorted(draw(st.lists(st.integers(0, 10**9), max_size=4, unique=True)))
    measurement_ids = iter(draw(st.lists(st.integers(0, 10**12), min_size=12, max_size=12,
                                         unique=True)))
    keyframes = []
    for kf_id in keyframe_ids:
        measurements = []
        for _ in range(draw(st.integers(0, 3))):
            x0, y0 = draw(st.floats(0.0, 600.0)), draw(st.floats(0.0, 400.0))
            w, h = draw(st.floats(0.5, 40.0)), draw(st.floats(0.5, 40.0))
            measurements.append(ObjectMeasurement(
                measurement_id=next(measurement_ids),
                keyframe_id=kf_id,
                class_label=draw(st.text(max_size=8)),
                bbox=BoundingBox2D(x0, y0, x0 + w, y0 + h),
                pose=draw(poses()),
                appearance=draw(unit_vectors(draw(st.integers(1, 8)))),
                gt_landmark_id=draw(st.none() | st.sampled_from(gt_ids)) if gt_ids else None,
            ))
        keyframes.append(Keyframe(kf_id, draw(FINITE), draw(poses()), tuple(measurements)))
    config = draw(st.none() | st.builds(replace, st.sampled_from(PRESET_NAMES).map(preset),
                                        seed=st.integers(0, 99)))
    return Dataset(keyframes=tuple(keyframes), gt_landmarks=gt_landmarks, config=config)


def same_pose(a: Pose6D, b: Pose6D) -> bool:
    # equal values; tests/test_records.py pins that the bits are equal too
    return np.array_equal(a.position, b.position) and np.array_equal(a.orientation, b.orientation)


@settings(max_examples=100, deadline=None)
@given(datasets())
def test_dataset_records_round_trip(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.assoc.jsonl"
        records.write_dataset(dataset, path)
        read = records.read_dataset(path)

    assert read.config == dataset.config
    assert len(read.gt_landmarks) == len(dataset.gt_landmarks)
    for got, want in zip(read.gt_landmarks, dataset.gt_landmarks):
        assert (got.gt_landmark_id, got.class_label) == (want.gt_landmark_id, want.class_label)
        assert same_pose(got.pose, want.pose)
    assert [kf.keyframe_id for kf in read.keyframes] == [kf.keyframe_id for kf in dataset.keyframes]
    for got_kf, want_kf in zip(read.keyframes, dataset.keyframes):
        assert got_kf.timestamp == want_kf.timestamp
        assert same_pose(got_kf.camera_pose, want_kf.camera_pose)
        assert len(got_kf.measurements) == len(want_kf.measurements)
        for got, want in zip(got_kf.measurements, want_kf.measurements):
            assert (got.measurement_id, got.keyframe_id, got.class_label,
                    got.gt_landmark_id) == (
                want.measurement_id, want.keyframe_id, want.class_label, want.gt_landmark_id)
            assert (got.bbox.x_min, got.bbox.y_min, got.bbox.x_max, got.bbox.y_max) == (
                want.bbox.x_min, want.bbox.y_min, want.bbox.x_max, want.bbox.y_max)
            assert same_pose(got.pose, want.pose)
            assert np.array_equal(got.appearance, want.appearance)


@PROPERTY_SETTINGS
@given(scenarios())
def test_map_records_round_trip(scenario):
    keyframes, config = scenario
    result = associate(keyframes, config)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.assoc.jsonl"
        records.write_map(result.landmarks, result.assignments, config_to_mapping(config), path)
        manifest, landmarks, assignments = records.read_map(path)

    assert manifest == config_to_mapping(config)
    assert assignments == result.assignments
    assert [lm.landmark_id for lm in landmarks] == [lm.landmark_id for lm in result.landmarks]
    for got, want in zip(landmarks, result.landmarks):
        assert got.class_label == want.class_label
        assert same_pose(got.refined_pose, want.refined_pose)
        assert got.tracks == tuple(sorted(want.associated_tracks))
        assert got.measurement_ids == tuple(sorted(want.measurement_ids))


@st.composite
def association_weight_lists(draw):
    """Unnormalised (landmarks..., new) weights of 1-200 entries, as a Gibbs visit draws from.

    Landmark weights may be 0 or up to 1e22 (above the largest density the
    covariance floor allows); the new-landmark weight is tiny but positive.
    """
    n = draw(st.integers(0, 199))
    weight = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e22))
    landmark_weights = draw(st.lists(weight, min_size=n, max_size=n))
    new_weight = draw(st.floats(min_value=1e-300, max_value=1e-6))
    return landmark_weights + [new_weight]


@settings(max_examples=300, deadline=None)
@given(association_weight_lists(), st.integers(0, 2**63 - 1))
def test_draw_index_matches_a_cumsum_searchsorted_oracle(raw, seed):
    cumulative = np.cumsum(raw)
    cdf = cumulative / cumulative[-1]
    ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        index = draw_index(raw, ours)
        assert index == np.searchsorted(cdf, twin.random(), side="right")
        assert ours.bit_generator.state == twin.bit_generator.state
        assert raw[index] > 0.0


class FixedRandom:
    """Stands in for a generator whose ``random()`` returns the given values."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_draw_index_searches_the_scaled_running_sum_at_its_boundaries():
    # Running sums 0, 1, 1, 3, 3 scale to 0, 1/3, 1/3, 1, 1: no zero weight is drawn.
    weights = [0.0, 1.0, 0.0, 2.0, 0.0]
    rng = FixedRandom(0.0, 1.0 / 3.0, math.nextafter(1.0 / 3.0, 0.0), math.nextafter(1.0, 0.0))
    assert [draw_index(weights, rng) for _ in range(4)] == [1, 3, 1, 3]
    # 0.1 + 0.2 scales to exactly 0.5; normalising the weights first would round it above.
    assert draw_index([0.1, 0.2, 0.3], FixedRandom(0.5)) == 2


def test_draw_index_refuses_a_sum_that_is_not_finite():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for weights in ([math.inf, 1.0], [1e308, 1e308, 1.0], [math.nan, 1.0]):
        with pytest.raises(NumericalError, match="overlap_boost"):
            draw_index(weights, rng)
    assert rng.bit_generator.state == before
