"""The exact underflow gate of the global association.

A component density exp(log_norm - d^2/2) is exactly 0.0 once its exponent is
below -746, and d^2 >= |dp|^2 / lambda_max(Sigma), so a landmark with no
measurement within the shared covariance's underflow radius R of a track
measurement has weight exactly 0.0. The association skips a landmark whose
position box is more than R from the track's along some axis. These tests
check the radius and the boxes against the densities they stand for, check
that every gated weight equals the ungated one on the presets and on random
scenarios (random diagonal and huge covariances, rotations near +-180 degrees,
negative coordinates and tracks at R along one axis), and pin how much
scoring the gate saves on long door aisles.
"""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import objassoc.association as association_module
import objassoc.mixture as mixture_module
from objassoc import CameraPath, LandmarkSpec, RunConfig, generate, preset
from objassoc.association import (
    LandmarkMap,
    association_weights,
    run_association,
)
from objassoc.core import canonical_quaternion, quat_from_axis_angle
from objassoc.mixture import (
    GATE_MARGIN,
    UNDERFLOW_LOG,
    SharedCovariance,
    boxes_apart,
    build_gmm,
    position_box,
)
from objassoc.synth import PRESET_NAMES
from objassoc.tracking import GroupTrack

from conftest import ASSOC, make_measurement, quat_about, score_alone

# Position block of distinct variances, the largest along z; the rotation block
# is small, so the largest eigenvector of the covariance is a pure position direction.
SPREAD_POSITION = np.diag([0.05, 0.04, 0.09])


def block_covariance(position_block, rotation_var=1e-3):
    cov = np.zeros((6, 6))
    cov[:3, :3] = position_block
    cov[3:, 3:] = rotation_var * np.eye(3)
    return cov


def random_covariance(rng, scale):
    """A diagonal covariance of six distinct random variances around ``6 * scale``."""
    return np.diag(scale * rng.chisquare(6, size=6) + 1e-3)


def exact_radius(covariance: SharedCovariance, cov) -> float:
    """R without the safety margin."""
    lam_max = float(np.linalg.eigvalsh(cov)[-1])
    return math.sqrt(2.0 * (covariance.log_norm - UNDERFLOW_LOG) * lam_max)


def run(keyframes, config: RunConfig):
    return run_association(
        keyframes,
        group_size=config.group_size,
        group_overlap=config.group_overlap,
        tracker_params=config.tracker_params(),
        assoc_params=config.assoc_params(),
        base_cov=config.base_cov(),
        refine_params=config.refine_params(),
    )


def variant_config(variant: str, seed: int = 0) -> RunConfig:
    config = RunConfig(assoc_seed=seed)
    return config.flat() if variant == "flat" else config


def ungated_weights(track, landmarks, params):
    """Every landmark scored, as before the gate: the reference for the gated weights."""
    weights = []
    for lm in landmarks:
        weight = 0.0
        if (
            lm.count
            and lm.class_label == track.class_label
            and not lm.conflicts_on_keyframe(track)
        ):
            weight = lm.count * score_alone(track, lm.gmm)
            if track.measurement_ids & lm.measurement_ids:
                weight *= params.overlap_boost
        weights.append(weight)
    return weights


def check_every_visit(monkeypatch):
    """Patch association_weights to compare each result with the ungated weights."""
    original = association_module.association_weights
    visits = []

    def checked(track, landmarks, params):
        got = original(track, landmarks, params)
        assert list(got.landmark_weights) == ungated_weights(track, landmarks, params)
        visits.append(track)
        return got

    monkeypatch.setattr(association_module, "association_weights", checked)
    return visits


def assert_sets_match_tracks(landmark, tracks):
    held = [tracks[key] for key in landmark.associated_tracks]
    measurements = [m for t in held for m in t.measurements]
    if measurements:
        assert landmark.gmm.box == position_box(measurements)
    else:
        assert landmark.gmm is None


class TestUnderflowRadius:
    def test_radius_at_the_defaults_is_about_ten_metres(self):
        cov = RunConfig().base_cov()
        covariance = SharedCovariance(cov)
        assert covariance.gate_radius == (1.0 + GATE_MARGIN) * exact_radius(covariance, cov)
        assert 9.6 < covariance.gate_radius < 9.8

    @pytest.mark.parametrize("position_block", [np.diag([0.09, 0.05, 0.04]), SPREAD_POSITION])
    def test_density_vanishes_at_the_radius_and_not_inside_it(self, position_block):
        cov = block_covariance(position_block)
        covariance = SharedCovariance(cov)
        radius = exact_radius(covariance, cov)
        direction = np.linalg.eigh(position_block)[1][:, -1]
        mean = make_measurement(1, pos=(-3.0, 2.0, 0.5))
        gmm = build_gmm([mean], covariance)

        def density_at(scale):
            pos = mean.pose.position + scale * radius * direction
            return score_alone([make_measurement(2, pos=tuple(pos))], gmm)

        assert 0.0 < density_at(0.999) < 1e-300  # tight: a subnormal just inside R
        assert density_at(1.0) == 0.0
        assert density_at(1.0 + GATE_MARGIN) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1.0, 3.0), st.floats(-180.0, 180.0))
    def test_density_is_zero_beyond_the_radius_for_any_covariance(self, seed, scale, yaw):
        rng = np.random.default_rng(seed)
        cov = random_covariance(rng, 0.05)
        covariance = SharedCovariance(cov)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        mean = make_measurement(1, pos=tuple(rng.uniform(-50.0, 50.0, size=3)))
        far = mean.pose.position + scale * covariance.gate_radius * direction
        point = make_measurement(2, pos=tuple(far), quat=quat_about([0, 0, 1], yaw))
        assert score_alone([point], build_gmm([mean], covariance)) == 0.0

    def test_huge_covariance_underflows_everywhere_and_gates_nothing(self):
        covariance = SharedCovariance(1e110 * np.eye(6))
        assert covariance.log_norm - UNDERFLOW_LOG <= 0.0
        assert covariance.gate_radius == math.inf
        positions = [(0, 0, 0), (-1e9, 5, 3e8), (1e300, -1e300, 0), (-1e300, 1e300, 1e300)]
        ms = [make_measurement(i, pos=p) for i, p in enumerate(positions)]
        for a in ms:
            for b in ms:
                assert not boxes_apart(position_box([a]), position_box([b]), math.inf)
        assert score_alone(ms[:1], build_gmm(ms[:1], covariance)) == 0.0

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_negative_boxes_are_apart_one_ulp_beyond_the_radius_and_not_at_it(self, axis):
        side = SharedCovariance(RunConfig().base_cov()).gate_radius
        positions = [(-0.5 * side, -side, -2.0 * side), (-1e-300, -2.5 * side, -3.0 * side)]
        box = position_box([make_measurement(i, pos=p) for i, p in enumerate(positions)])
        assert box == (-0.5 * side, -2.5 * side, -3.0 * side, 1e-300, side, 2.0 * side)
        hi = -box[3 + axis]
        # coordinates whose float difference from hi is R and the float after R
        beyond = math.nextafter(side, math.inf)
        coordinates = [hi + side, hi + beyond]
        assert [c - hi for c in coordinates] == [side, beyond]
        for coordinate, apart in zip(coordinates, (False, True)):
            pos = [-0.5 * side, -side, -2.0 * side]
            pos[axis] = coordinate
            other = position_box([make_measurement(9, pos=tuple(pos))])
            assert boxes_apart(other, box, side) is apart
            assert boxes_apart(box, other, side) is apart

    def test_coordinates_near_1e15_gate_exactly(self):
        side = SharedCovariance(RunConfig().base_cov()).gate_radius
        step = math.ulp(1e15)  # 0.125: every offset below is a float near 1e15
        inside = math.floor(side / step) * step
        base = position_box([make_measurement(1, pos=(1e15, -1e15, 1e15))])
        for offset, apart in ((inside, False), (inside + step, True)):
            near = position_box([make_measurement(2, pos=(1e15 + offset, -1e15, 1e15))])
            below = position_box([make_measurement(3, pos=(1e15, -1e15 - offset, 1e15))])
            assert boxes_apart(near, base, side) is apart
            assert boxes_apart(base, below, side) is apart
        far = position_box([make_measurement(4, pos=(-1e300, 0, 0))])
        assert boxes_apart(position_box([make_measurement(5, pos=(1e300, 0, 0))]), far, side)

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(*[st.integers(-40, 40)] * 3),
        st.tuples(*[st.sampled_from([0.0, 1e-9, 0.5, 1.0 - 1e-12])] * 3),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
    )
    def test_points_within_the_radius_are_never_apart(self, k, frac, seed, scale):
        cov = block_covariance(SPREAD_POSITION)
        covariance = SharedCovariance(cov)
        side = covariance.gate_radius
        rng = np.random.default_rng(seed)
        base = (np.array(k) + np.array(frac)) * side
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        other = base + scale * exact_radius(covariance, cov) * direction
        # more points around each end only widen the boxes
        ends = [base + rng.normal(size=(2, 3)) * side, other + rng.normal(size=(2, 3)) * side]
        boxes = [
            position_box([make_measurement(i, pos=tuple(p)) for i, p in enumerate([end, *extra])])
            for end, extra in zip((base, other), ends)
        ]
        assert not boxes_apart(boxes[0], boxes[1], side)
        assert not boxes_apart(boxes[1], boxes[0], side)
        single = [position_box([make_measurement(1, pos=tuple(p))]) for p in (base, other)]
        assert not boxes_apart(single[0], single[1], side)


class TestGateOracle:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("variant", ["hierarchical", "flat"])
    def test_presets_weigh_every_landmark_as_if_ungated(self, monkeypatch, name, variant):
        visits = check_every_visit(monkeypatch)
        run(generate(replace(preset(name), seed=0)).keyframes, variant_config(variant))
        assert visits

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["default", "random", "huge"]),
        n_landmarks=st.integers(1, 5),
        negative=st.booleans(),
        on_boundary=st.booleans(),
    )
    def test_random_maps_weigh_every_landmark_as_if_ungated(
        self, seed, kind, n_landmarks, negative, on_boundary
    ):
        rng = np.random.default_rng(seed)
        if kind == "default":
            cov = RunConfig().base_cov()
        elif kind == "random":
            cov = random_covariance(rng, 0.02)
        else:
            cov = 1e110 * np.eye(6)
        state = LandmarkMap(base_cov=cov, rng=np.random.default_rng(0))
        side = state.covariance.gate_radius
        scale = 10.0 if math.isinf(side) else side
        origin = np.full(3, -3.0 * scale if negative else 0.0)

        ids = iter(range(1, 10_000))

        def track(group_index, positions):
            measurements = []
            for pos in positions:
                # yaw within 1 degree of +-180, the rotation-vector seam
                yaw = rng.choice([-1.0, 1.0]) * (180.0 - rng.uniform(0.0, 1.0))
                kf_id = int(rng.integers(1, 40))  # shared keyframes exercise the conflict rule
                measurements.append(
                    make_measurement(next(ids), kf_id=kf_id, pos=tuple(pos),
                                     quat=quat_about([0, 0, 1], yaw))
                )
            return GroupTrack(group_index, 0, "door", measurements)

        def around(centre):
            n = int(rng.integers(1, 4))
            return centre + rng.uniform(-1.5, 1.5, size=3) * scale + rng.normal(
                scale=0.05 * scale, size=(n, 3)
            )

        tracks = {}
        for g in range(1, n_landmarks + 1):
            t = track(g, around(origin))
            joins = state.landmark_list() and rng.uniform() < 0.3
            state.attach(t, state.landmark_list()[-1].landmark_id if joins else None)
            tracks[(t.group_index, t.track_index)] = t
        if rng.uniform() < 0.3:
            state.detach(t)
        if on_boundary:
            # The probe sits beyond the outermost held measurement along one
            # axis, at R or just inside the unwidened radius, where a density
            # along the largest eigenvector is still a subnormal above 0.0.
            inside = scale if math.isinf(side) else 0.99 * exact_radius(state.covariance, cov)
            held = np.array([m.pose.position for t in tracks.values() for m in t.measurements])
            axis, sign = int(rng.integers(3)), rng.choice([-1.0, 1.0])
            outermost = held[np.argmax(sign * held[:, axis])]
            positions = np.repeat([outermost], int(rng.integers(1, 4)), axis=0)
            positions[:, axis] += sign * rng.choice([inside, scale])
        else:
            positions = around(origin)
        probe = track(n_landmarks + 1, positions)

        landmarks = state.landmark_list()
        got = association_weights(probe, landmarks, ASSOC)
        assert list(got.landmark_weights) == ungated_weights(probe, landmarks, ASSOC)
        for lm in landmarks:
            assert_sets_match_tracks(lm, tracks)

    @pytest.mark.parametrize("variant", ["hierarchical", "flat"])
    def test_counts_follow_the_tracks_through_a_run(self, monkeypatch, variant):
        states = []
        original_init = LandmarkMap.__init__

        def recording_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            states.append(self)

        monkeypatch.setattr(LandmarkMap, "__init__", recording_init)
        run(generate(replace(preset("aisle_quick"), seed=0)).keyframes, variant_config(variant))
        (state,) = states
        for lm in state.landmarks.values():
            assert_sets_match_tracks(lm, state._tracks)


# ---------------------------------------------------------------------------
# long door aisles, built from the public scenario API


def door_aisle_scenario(n_pairs: int, seed: int):
    """``aisle_slow``'s noise and camera past ``n_pairs`` confusable door pairs 5 m apart."""
    base = preset("aisle_slow")
    facing = tuple(canonical_quaternion(quat_from_axis_angle([0.0, 0.0, 1.0], -math.pi / 2.0)))
    landmarks = tuple(
        LandmarkSpec("door", (6.0 + 5.0 * pair + k * base.confusable_gap, 1.6, 1.0), facing, pair)
        for pair in range(n_pairs)
        for k in range(2)
    )
    start, end = base.camera.waypoints
    camera = CameraPath((start, (6.0 + 5.0 * (n_pairs - 1) + 4.0, end[1], end[2])))
    return replace(
        base,
        landmarks=landmarks,
        camera=camera,
        appearance_dim=max(base.appearance_dim, n_pairs),
        seed=seed,
    )


@lru_cache(maxsize=None)
def door_aisle(n_pairs: int, seed: int = 0):
    return generate(door_aisle_scenario(n_pairs, seed))


def mixtures_scored(monkeypatch, dataset, config):
    """(mixtures scored, result) of one run; a visit scores its mixtures in one stacked call."""
    scored = []
    original = association_module.max_measurement_likelihood

    def counting(candidate, target):
        scored.append(len(target.mixtures))
        return original(candidate, target)

    with monkeypatch.context() as patch:
        patch.setattr(association_module, "max_measurement_likelihood", counting)
        result = run(dataset.keyframes, config)
    return sum(scored), result


def measurement_count(dataset) -> int:
    return sum(len(kf.measurements) for kf in dataset.keyframes)


class TestGateSavings:
    def test_sixteen_pairs_score_at_most_half_of_the_ungated_calls(self, monkeypatch):
        dataset = door_aisle(16)
        gated, result = mixtures_scored(monkeypatch, dataset, RunConfig())
        # An underflow limit no exponent reaches makes the radius infinite: one cell, no gate.
        monkeypatch.setattr(mixture_module, "UNDERFLOW_LOG", -math.inf)
        ungated, reference = mixtures_scored(monkeypatch, dataset, RunConfig())
        assert result.assignments == reference.assignments
        assert gated <= 0.5 * ungated

    @pytest.mark.parametrize("variant", ["hierarchical", "flat"])
    def test_scoring_per_measurement_stays_flat_as_the_map_grows(self, monkeypatch, variant):
        per_measurement = {}
        for n_pairs in (12, 48):  # 24 and 96 landmarks
            dataset = door_aisle(n_pairs)
            calls, _ = mixtures_scored(monkeypatch, dataset, variant_config(variant))
            per_measurement[n_pairs] = calls / measurement_count(dataset)
        assert per_measurement[48] <= 1.5 * per_measurement[12]
