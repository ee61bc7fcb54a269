import copy
import dataclasses
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import objassoc.association as association_module
from objassoc.association import (
    AssocParams,
    GlobalLandmark,
    LandmarkMap,
    association_weights,
    gibbs_assign_group,
    run_association,
)
from objassoc.config import RunConfig
from objassoc.errors import InvalidConfigurationError, InvalidInputError
from objassoc.mixture import SharedCovariance, build_gmm, max_measurement_likelihood
from objassoc.refine import refine_pose
from objassoc.synth import PRESET_NAMES, generate, preset
from objassoc.tracking import GroupTrack

from conftest import ASSOC, REFINE, TRACKER, make_keyframe, make_measurement

PEAK_6D = (2.0 * math.pi) ** -3


def track_of(measurements, group_index=1, track_index=0):
    return GroupTrack(
        group_index=group_index,
        track_index=track_index,
        class_label=measurements[0].class_label,
        measurements=list(measurements),
    )


# One covariance per base covariance, as in a map: a visit scores its landmarks in one stack.
_COVARIANCES: dict[bytes, SharedCovariance] = {}


def landmark_of(measurements, landmark_id=1, base_cov=None):
    base_cov = np.eye(6) if base_cov is None else np.asarray(base_cov, dtype=float)
    lm = GlobalLandmark(landmark_id=landmark_id, class_label=measurements[0].class_label)
    lm.associated_tracks = [(0, landmark_id)]
    lm.measurements = list(measurements)
    lm.measurement_ids = frozenset(m.measurement_id for m in measurements)
    for m in measurements:
        lm.keyframe_to_measurement.setdefault(m.keyframe_id, m.measurement_id)
    covariance = _COVARIANCES.get(base_cov.tobytes())
    if covariance is None:
        covariance = _COVARIANCES[base_cov.tobytes()] = SharedCovariance(base_cov)
    lm.gmm = build_gmm(measurements, covariance)
    return lm


def fresh_state(seed=0, base_cov=None):
    return LandmarkMap(
        base_cov=np.eye(6) if base_cov is None else base_cov,
        rng=np.random.default_rng(seed),
    )


def assert_exclusion_and_conservation(result, dataset_measurement_ids):
    for lm in result.landmarks:
        groups = [g for g, _ in lm.associated_tracks]
        assert len(groups) == len(set(groups)), "same-group exclusion violated"
        classes = {m.class_label for m in lm.measurements}
        assert len(classes) == 1, "class purity violated"
        kf_ids = [m.keyframe_id for m in lm.measurements]
        assert len(kf_ids) == len(set(kf_ids)), "two detections of one keyframe merged"
    assert set(result.assignments) == set(dataset_measurement_ids)


class TestAssocParams:
    @pytest.mark.parametrize(
        "field, value",
        [("new_weight", math.nan), ("new_weight", math.inf), ("overlap_boost", math.nan),
         ("overlap_boost", math.inf)],
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidConfigurationError, match=field):
            replace(ASSOC, **{field: value})

    @pytest.mark.parametrize("value", [0.0, -1e-6])
    def test_new_weight_must_be_positive(self, value):
        with pytest.raises(InvalidConfigurationError, match="new_weight"):
            replace(ASSOC, new_weight=value)

    def test_fields_are_the_new_weight_and_the_sampler_knobs(self):
        names = [f.name for f in dataclasses.fields(AssocParams)]
        assert names == ["new_weight", "overlap_boost", "gibbs_sweeps", "rng_seed"]

    @pytest.mark.parametrize(
        "field, value",
        [("rng_seed", -1), ("rng_seed", 1.0), ("rng_seed", True), ("gibbs_sweeps", 2.5)],
    )
    def test_seed_and_sweeps_must_be_integers_in_range(self, field, value):
        with pytest.raises(InvalidConfigurationError):
            replace(ASSOC, **{field: value})

    def test_numpy_integer_seed_accepted(self):
        assert replace(ASSOC, rng_seed=np.int64(3), gibbs_sweeps=np.int64(2)).rng_seed == 3


class TestAssociationWeights:
    def test_empty_landmark_list_leaves_only_new(self):
        track = track_of([make_measurement(1)])
        weights = association_weights(track, [], ASSOC)
        assert weights.landmark_weights == ()
        assert [f.name for f in dataclasses.fields(weights)] == ["landmark_weights"]

    def test_overlap_boost_ratio_is_exactly_1_5(self):
        shared = make_measurement(1, kf_id=10, pos=(0, 0, 0))
        others = [make_measurement(i, kf_id=i - 9, pos=(0.1, 0, 0)) for i in (10, 11)]
        twins = [make_measurement(i, kf_id=i - 19, pos=(0.1, 0, 0)) for i in (20, 21)]
        sharing = landmark_of([shared] + others, landmark_id=1)
        not_sharing = landmark_of(
            [make_measurement(99, kf_id=5, pos=(0, 0, 0))] + twins, landmark_id=2
        )

        track = track_of(
            [shared, make_measurement(2, kf_id=11, pos=(0.05, 0, 0))], group_index=5
        )
        weights = association_weights(track, [sharing, not_sharing], ASSOC)
        w_shared, w_plain = weights.landmark_weights
        assert w_shared == 1.5 * w_plain

    def test_boost_parameter_scales_only_sharing_landmarks(self):
        shared = make_measurement(1, kf_id=10)
        sharing = landmark_of(
            [shared, make_measurement(10, kf_id=2, pos=(0.1, 0, 0))], landmark_id=1
        )
        plain = landmark_of(
            [make_measurement(20, kf_id=3), make_measurement(21, kf_id=4, pos=(0.1, 0, 0))],
            landmark_id=2,
        )
        track = track_of([shared], group_index=5)
        boosted = association_weights(track, [sharing, plain], replace(ASSOC, overlap_boost=1.5))
        unboosted = association_weights(track, [sharing, plain], replace(ASSOC, overlap_boost=1.0))
        assert boosted.landmark_weights[0] == 1.5 * unboosted.landmark_weights[0]
        assert boosted.landmark_weights[1] == unboosted.landmark_weights[1]

    def test_existing_landmark_dominates_tiny_new_weight(self):
        landmark = landmark_of(
            [make_measurement(i, kf_id=i, pos=(0, 0, 0)) for i in (1, 2, 3)], landmark_id=1
        )
        track = track_of([make_measurement(50, kf_id=50, pos=(0, 0, 0))], group_index=4)
        params = replace(ASSOC, new_weight=1e-6)
        (weight,) = association_weights(track, [landmark], params).landmark_weights
        assert weight == pytest.approx(3.0 * PEAK_6D, rel=1e-12)
        assert weight / (weight + params.new_weight) > 0.99

    def test_class_mismatch_and_keyframe_conflict_zeroed(self):
        door = landmark_of([make_measurement(1, kf_id=1)], landmark_id=1)
        chair = landmark_of([make_measurement(2, kf_id=2, cls="chair")], landmark_id=2)
        # saw keyframe 9 as a different detection than the track did
        conflicting = landmark_of([make_measurement(4, kf_id=9)], landmark_id=4)
        track = track_of([make_measurement(9, kf_id=9)], group_index=7, track_index=1)
        weights = association_weights(track, [door, chair, conflicting], ASSOC)
        assert weights.landmark_weights[1] == 0.0  # class mismatch
        assert weights.landmark_weights[2] == 0.0  # same-keyframe conflict
        assert weights.landmark_weights[0] > 0.0

    def test_shared_measurement_is_not_a_keyframe_conflict(self):
        shared = make_measurement(1, kf_id=4)
        landmark = landmark_of([shared, make_measurement(2, kf_id=5)], landmark_id=1)
        track = track_of([shared, make_measurement(3, kf_id=6)], group_index=3)
        weights = association_weights(track, [landmark], ASSOC)
        assert weights.landmark_weights[0] > 0.0

    def test_empty_track_rejected(self):
        track = GroupTrack(group_index=1, track_index=0, class_label="door")
        with pytest.raises(InvalidInputError):
            association_weights(track, [], ASSOC)

    def test_one_kernel_call_per_visit(self, monkeypatch):
        stacks = []

        def recording(candidate, target):
            stacks.append(target)
            return max_measurement_likelihood(candidate, target)

        monkeypatch.setattr(association_module, "max_measurement_likelihood", recording)
        track = track_of([make_measurement(9, kf_id=9)], group_index=7)
        near = [make_measurement(i, kf_id=i, pos=(0.1 * i, 0, 0)) for i in (1, 2, 3)]
        state = fresh_state()
        shared = [state.attach(track_of([m], group_index=m.measurement_id)) for m in near]
        association_weights(track, shared, ASSOC)
        assert [stack.mixtures for stack in stacks] == [tuple(lm.gmm for lm in shared)]

    def test_mixtures_of_two_covariances_refused(self):
        near = landmark_of([make_measurement(1, kf_id=1)], landmark_id=1)
        other = landmark_of([make_measurement(2, kf_id=2, pos=(0.1, 0, 0))], landmark_id=2)
        # equal matrices, but two objects: a map has exactly one
        other.gmm = build_gmm(other.measurements, SharedCovariance(np.eye(6)))
        track = track_of([make_measurement(9, kf_id=9)], group_index=7)
        with pytest.raises(InvalidInputError, match="one covariance"):
            association_weights(track, [near, other], ASSOC)


class TestLandmarkMap:
    def test_an_emptied_landmark_refuses_a_track_of_another_class(self):
        state = fresh_state()
        door = track_of([make_measurement(1, kf_id=1)], group_index=1)
        chair = track_of([make_measurement(2, kf_id=2, cls="chair")], group_index=2)
        landmark = state.attach(door)
        state.detach(door)
        assert landmark.count == 0
        with pytest.raises(InvalidInputError, match="class labels differ"):
            state.attach(chair, landmark.landmark_id)
        assert landmark.associated_tracks == [] and landmark.count == 0
        assert state.track_assignments == {}

    def test_an_attached_track_is_refused_a_second_landmark(self):
        state = fresh_state()
        track = track_of([make_measurement(1, kf_id=1)], group_index=1)
        first = state.attach(track)
        other = state.attach(track_of([make_measurement(2, kf_id=2)], group_index=2))
        for landmark_id in (other.landmark_id, first.landmark_id, None):
            with pytest.raises(InvalidInputError, match="already attached"):
                state.attach(track, landmark_id)
        assert list(state.landmarks) == [first.landmark_id, other.landmark_id]
        assert first.associated_tracks == [(1, 0)] and other.associated_tracks == [(2, 0)]
        state.detach(track)
        assert first.associated_tracks == [] and other.associated_tracks == [(2, 0)]
        assert state.track_assignments == {(2, 0): other.landmark_id}

    def test_an_unknown_landmark_id_is_refused_before_anything_changes(self):
        state = fresh_state()
        held = state.attach(track_of([make_measurement(1, kf_id=1)], group_index=1))
        next_id = state._next_id
        track = track_of([make_measurement(2, kf_id=2)], group_index=2)
        with pytest.raises(InvalidInputError, match="no landmark with id 99"):
            state.attach(track, 99)
        assert state.landmarks == {held.landmark_id: held}
        assert held.associated_tracks == [(1, 0)]
        assert state.track_assignments == {(1, 0): held.landmark_id}
        assert state._next_id == next_id

    def test_a_landmark_refuses_a_second_track_of_one_group(self):
        state = fresh_state()
        held = state.attach(track_of([make_measurement(1, kf_id=1)], group_index=7))
        before = derived_fields(held)
        next_id = state._next_id
        sibling = track_of([make_measurement(2, kf_id=2)], group_index=7, track_index=1)
        with pytest.raises(InvalidInputError, match="already has a track of group 7"):
            state.attach(sibling, held.landmark_id)
        assert state.landmarks == {held.landmark_id: held}
        assert held.associated_tracks == [(7, 0)] and derived_fields(held) == before
        assert state.track_assignments == {(7, 0): held.landmark_id}
        assert state._next_id == next_id
        # another group's track, or the same group's track once the holder left, is taken
        state.attach(track_of([make_measurement(3, kf_id=3)], group_index=8), held.landmark_id)
        state.detach(track_of([make_measurement(1, kf_id=1)], group_index=7))
        assert state.attach(sibling, held.landmark_id) is held
        assert sorted(held.associated_tracks) == [(7, 1), (8, 0)]

    def test_detaching_an_unattached_track_changes_nothing(self):
        state = fresh_state()
        held = state.attach(track_of([make_measurement(1, kf_id=1)], group_index=1))
        gmm = held.gmm
        state.detach(track_of([make_measurement(2, kf_id=2)], group_index=2))
        assert state.track_assignments == {(1, 0): held.landmark_id}
        assert list(state.landmarks) == [held.landmark_id]
        assert held.gmm is gmm

    def test_an_emptied_landmark_stays_in_place_and_takes_its_track_back(self):
        state = fresh_state()
        track = track_of([make_measurement(1, kf_id=1), make_measurement(2, kf_id=2)])
        landmark = state.attach(track)
        before = derived_fields(landmark)
        state.detach(track)
        assert state.landmark_list() == [landmark]
        assert landmark.count == 0 and landmark.measurement_ids == frozenset()
        assert landmark.keyframe_to_measurement == {} and landmark.gmm is None
        assert state.attach(track, landmark.landmark_id) is landmark
        assert derived_fields(landmark) == before

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("variant", ["hierarchical", "flat"])
    def test_every_landmark_equals_a_fresh_build_after_every_group(
        self, monkeypatch, name, variant
    ):
        original = association_module.gibbs_assign_group
        checked = []

        def checking(state, tracks, params):
            original(state, tracks, params)
            for landmark in state.landmark_list():
                in_key_order = [state._tracks[key] for key in sorted(landmark.associated_tracks)]
                assert derived_fields(landmark) == fresh_build(
                    landmark, in_key_order, state.covariance
                )
            checked.append(len(state.landmarks))

        monkeypatch.setattr(association_module, "gibbs_assign_group", checking)
        result = run_preset(name, variant)
        assert checked and checked[-1] == len(result.landmarks) > 1

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("variant", ["hierarchical", "flat"])
    def test_every_extending_attach_adds_a_key_after_every_held_key(
        self, monkeypatch, name, variant
    ):
        original = LandmarkMap.attach
        extending = []

        def checking(state, track, landmark_id=None):
            if landmark_id is not None:
                key = (track.group_index, track.track_index)
                held = state.landmarks[landmark_id].associated_tracks
                assert held and all(k < key for k in held)
                extending.append(key)
            return original(state, track, landmark_id)

        monkeypatch.setattr(LandmarkMap, "attach", checking)
        result = run_preset(name, variant)
        # every landmark of a one-group run is opened by its only track
        assert extending or len(result.groups) == 1

    def test_a_landmark_keeps_join_order_through_a_detach_and_a_reattach(self):
        pool = [make_measurement(i, kf_id=i % 2, pos=(0.1 * i, 0, 0)) for i in range(5)]
        late = track_of(pool[0:2], group_index=5)
        middle = track_of(pool[3:5], group_index=3)
        early = track_of(pool[1:4], group_index=1)
        state = fresh_state()
        landmark = state.attach(late)
        state.attach(middle, landmark.landmark_id)
        state.attach(early, landmark.landmark_id)
        assert [m.measurement_id for m in landmark.measurements] == [0, 1, 3, 4, 2]
        state.detach(late)
        assert [m.measurement_id for m in landmark.measurements] == [3, 4, 1, 2]
        assert landmark.keyframe_to_measurement == {1: 3, 0: 4}
        state.attach(late, landmark.landmark_id)
        assert [m.measurement_id for m in landmark.measurements] == [3, 4, 1, 2, 0]
        assert derived_fields(landmark) == fresh_build(
            landmark, [middle, early, late], state.covariance
        )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_attaches_and_detaches_keep_every_landmark_a_fresh_build(self, data):
        # Eight measurements over four keyframes: tracks overlap, and two
        # measurements of one keyframe meet in one landmark's keyframe index.
        # A track holds each measurement once, as run_association's tracks do.
        pool = [make_measurement(i, kf_id=i % 4, pos=(0.1 * i, 0, 0)) for i in range(8)]
        subsets = st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)
        groups = st.integers(0, 7)
        tracks = [
            track_of(data.draw(subsets), group_index=data.draw(groups), track_index=index)
            for index in range(data.draw(st.integers(2, 6)))
        ]
        steps = data.draw(st.lists(
            st.tuples(st.booleans(), st.sampled_from(tracks), st.integers(0, 2)), max_size=24
        ))
        state = fresh_state()
        for attaching, track, target in steps:
            if not attaching:
                state.detach(track)
                continue
            held = state.landmark_list()
            landmark_id = held[target].landmark_id if target < len(held) else None
            try:
                state.attach(track, landmark_id)
            except InvalidInputError:
                pass
            for landmark in state.landmark_list():
                in_join_order = [state._tracks[key] for key in landmark.associated_tracks]
                assert derived_fields(landmark) == fresh_build(
                    landmark, in_join_order, state.covariance
                )


def fresh_build(landmark, tracks, covariance):
    """The landmark's derived fields built afresh from ``tracks``, in their order.

    A full rebuild from every track, deduplicated: the reference that the
    map's appending ``_extend`` and ``detach``'s replay must match.
    """
    seen: set[int] = set()
    measurements = []
    by_keyframe: dict[int, int] = {}
    for track in tracks:
        for m in track.measurements:
            if m.measurement_id not in seen:
                seen.add(m.measurement_id)
                measurements.append(m)
                by_keyframe.setdefault(m.keyframe_id, m.measurement_id)
    fresh = GlobalLandmark(
        landmark_id=landmark.landmark_id,
        class_label=landmark.class_label,
        measurements=measurements,
        gmm=build_gmm(measurements, covariance) if measurements else None,
        measurement_ids=frozenset(seen),
        keyframe_to_measurement=by_keyframe,
    )
    return derived_fields(fresh)


def derived_fields(landmark):
    """Everything the map derives from a landmark's tracks, copied into comparable form."""
    return (
        [m.measurement_id for m in landmark.measurements],
        landmark.measurement_ids,
        dict(landmark.keyframe_to_measurement),
        None if landmark.gmm is None else landmark.gmm.box,
        None if landmark.gmm is None else landmark.gmm.components.tobytes(),
        None if landmark.gmm is None else landmark.gmm.whitened.tobytes(),
    )


class TestGroupCosts:
    """One weighting per track and group; one mixture per landmark that gained a track."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("variant", ["hierarchical", "flat"])
    def test_each_track_weighted_once_per_group(self, monkeypatch, name, variant):
        weighted = Counter()  # (group index, track index) -> association_weights calls
        tracks_seen = []
        original_weights = association_module.association_weights
        original_gibbs = association_module.gibbs_assign_group

        def counting(track, landmarks, params):
            weighted[track.group_index, track.track_index] += 1
            return original_weights(track, landmarks, params)

        def recording(state, tracks, params):
            tracks_seen.extend((t.group_index, t.track_index) for t in tracks)
            original_gibbs(state, tracks, params)

        monkeypatch.setattr(association_module, "association_weights", counting)
        monkeypatch.setattr(association_module, "gibbs_assign_group", recording)
        run_preset(name, variant)
        assert tracks_seen and len(set(tracks_seen)) == len(tracks_seen)
        assert weighted == Counter(tracks_seen)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("variant", ["hierarchical", "flat"])
    def test_a_mixture_is_built_once_and_only_for_a_landmark_that_gained_a_track(
        self, monkeypatch, name, variant
    ):
        # (measurement ids, base, result) of each build in the current group;
        # the mixtures stay referenced, so their ids are not reused
        built = []
        groups_checked = []
        original_build = association_module.build_gmm
        original_gibbs = association_module.gibbs_assign_group

        def recording_build(measurements, covariance, base=None):
            result = original_build(measurements, covariance, base)
            built.append(([m.measurement_id for m in measurements], base, result))
            return result

        def checked(state, tracks, params):
            built.clear()
            start = {lm.landmark_id: (lm.measurement_ids, lm.gmm) for lm in state.landmark_list()}
            original_gibbs(state, tracks, params)
            if not tracks:
                assert not built
                return
            group = tracks[0].group_index
            expected = []
            for landmark in state.landmark_list():
                gained = [key for key in landmark.associated_tracks if key[0] == group]
                if not gained:
                    continue
                held, base = start.get(landmark.landmark_id, (frozenset(), None))
                lacked = [
                    m.measurement_id for m in state._tracks[gained[0]].measurements
                    if m.measurement_id not in held
                ]
                if lacked:
                    expected.append((lacked, base, landmark.gmm))
                else:
                    assert landmark.gmm is base
            assert len(built) == len(expected)
            assert {id(gmm): (ids, id(base)) for ids, base, gmm in built} == {
                id(gmm): (ids, id(base)) for ids, base, gmm in expected
            }
            groups_checked.append(group)

        monkeypatch.setattr(association_module, "build_gmm", recording_build)
        monkeypatch.setattr(association_module, "gibbs_assign_group", checked)
        result = run_preset(name, variant)
        assert groups_checked and len(result.landmarks) > 1

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("variant", ["hierarchical", "flat"])
    def test_each_track_and_mixture_scored_once(self, monkeypatch, name, variant):
        pairs = []  # the objects stay referenced, so their ids are not reused

        def recording(candidate, target):
            pairs.extend((candidate, gmm) for gmm in target.mixtures)
            return max_measurement_likelihood(candidate, target)

        monkeypatch.setattr(association_module, "max_measurement_likelihood", recording)
        run_preset(name, variant)
        keys = [(id(track), id(gmm)) for track, gmm in pairs]
        assert len(set(keys)) == len(keys)


class TestGibbsAssignGroup:
    def test_first_group_forces_one_landmark_per_track(self):
        state = fresh_state()
        tracks = [
            track_of([make_measurement(1, pos=(0, 0, 0))], group_index=1, track_index=0),
            track_of([make_measurement(2, pos=(0.1, 0, 0))], group_index=1, track_index=1),
        ]
        gibbs_assign_group(state, tracks, ASSOC)
        assert len(state.landmarks) == 2

    def test_track_at_landmark_mean_joins_it(self):
        joined = 0
        for seed in range(100):
            state = fresh_state(seed=seed)
            first = [track_of([make_measurement(1, kf_id=0)], group_index=1, track_index=0)]
            gibbs_assign_group(state, first, replace(ASSOC, new_weight=1e-6))
            existing = next(iter(state.landmarks))
            second = [track_of([make_measurement(2, kf_id=9)], group_index=2, track_index=0)]
            gibbs_assign_group(state, second, replace(ASSOC, new_weight=1e-6))
            if state.track_assignments[(2, 0)] == existing:
                joined += 1
        assert joined >= 99

    def test_well_separated_objects_stay_apart(self):
        # Two objects 20 sigma apart observed by two groups each.
        exact = 0
        for seed in range(100):
            state = fresh_state(seed=seed)
            for group in (1, 2):
                tracks = [
                    track_of(
                        [make_measurement(group * 10 + 1, kf_id=group * 10, pos=(0, 0, 0))],
                        group_index=group,
                        track_index=0,
                    ),
                    track_of(
                        [make_measurement(group * 10 + 2, kf_id=group * 10, pos=(20.0, 0, 0))],
                        group_index=group,
                        track_index=1,
                    ),
                ]
                gibbs_assign_group(state, tracks, ASSOC)
            if len(state.landmarks) == 2:
                exact += 1
        assert exact >= 99

    def test_mixed_group_tracks_rejected(self):
        state = fresh_state()
        tracks = [
            track_of([make_measurement(1)], group_index=1, track_index=0),
            track_of([make_measurement(2)], group_index=2, track_index=0),
        ]
        with pytest.raises(InvalidInputError):
            gibbs_assign_group(state, tracks, ASSOC)

    def test_duplicate_track_index_rejected(self):
        state = fresh_state()
        tracks = [
            track_of([make_measurement(1, kf_id=1)], group_index=1, track_index=0),
            track_of([make_measurement(2, kf_id=2)], group_index=1, track_index=0),
        ]
        with pytest.raises(InvalidInputError, match="duplicate track_index"):
            gibbs_assign_group(state, tracks, ASSOC)
        assert state.landmarks == {} and state.track_assignments == {}

    def test_an_empty_group_leaves_the_map_and_generator_alone(self):
        state = fresh_state()
        held = state.attach(track_of([make_measurement(1, kf_id=1)], group_index=1))
        generator = copy.deepcopy(state.rng.bit_generator.state)
        gibbs_assign_group(state, [], ASSOC)
        assert state.landmark_list() == [held]
        assert state.track_assignments == {(1, 0): held.landmark_id}
        assert state.rng.bit_generator.state == generator

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("variant", ["hierarchical", "flat"])
    def test_a_group_attaches_its_tracks_and_leaves_earlier_ones_alone(
        self, monkeypatch, name, variant
    ):
        original = association_module.gibbs_assign_group
        groups_checked = []

        def checking(state, tracks, params):
            earlier = dict(state.track_assignments)
            original(state, tracks, params)
            keys = {(t.group_index, t.track_index) for t in tracks}
            assert set(state.track_assignments) == set(earlier) | keys
            assert {k: state.track_assignments[k] for k in earlier} == earlier
            for key, landmark_id in state.track_assignments.items():
                assert key in state.landmarks[landmark_id].associated_tracks
            ids = list(state.landmarks)
            assert ids == sorted(ids) and all(i < state._next_id for i in ids)
            for landmark in state.landmark_list():
                groups = [g for g, _ in landmark.associated_tracks]
                assert landmark.count > 0 and len(groups) == len(set(groups))
            groups_checked.append(len(tracks))

        monkeypatch.setattr(association_module, "gibbs_assign_group", checking)
        run_preset(name, variant)
        assert groups_checked and sum(groups_checked) > 1

    def test_empty_landmarks_garbage_collected(self):
        state = fresh_state()
        track = track_of([make_measurement(1)], group_index=1, track_index=0)
        gibbs_assign_group(state, [track], replace(ASSOC, gibbs_sweeps=7))
        assert all(lm.count > 0 for lm in state.landmarks.values())


def single_object_keyframes(n, pos=(3.0, 0.0, 1.0)):
    keyframes = []
    for k in range(n):
        keyframes.append(
            make_keyframe(k, [make_measurement(k + 1, kf_id=k, pos=pos, gt=1)])
        )
    return keyframes


def default_kwargs(seed=0):
    return dict(
        tracker_params=TRACKER,
        assoc_params=replace(ASSOC, rng_seed=seed),
        base_cov=np.diag([0.25**2] * 3 + [math.radians(10.0) ** 2] * 3),
        refine_params=REFINE,
    )


def run_preset(name, variant, seed=0):
    config = RunConfig().with_seed(seed)
    if variant == "flat":
        config = config.flat()
    dataset = generate(replace(preset(name), seed=seed))
    return run_association(
        dataset.keyframes,
        group_size=config.group_size,
        group_overlap=config.group_overlap,
        tracker_params=config.tracker_params(),
        assoc_params=config.assoc_params(),
        base_cov=config.base_cov(),
        refine_params=config.refine_params(),
    )


class TestRunAssociation:
    def test_duplicate_measurement_id_rejected(self):
        keyframes = list(generate(replace(preset("aisle_quick"), seed=0)).keyframes)
        taken = keyframes[1].measurements[0].measurement_id
        clash = replace(keyframes[6].measurements[0], measurement_id=taken)
        keyframes[6] = replace(
            keyframes[6], measurements=(clash,) + tuple(keyframes[6].measurements[1:])
        )
        with pytest.raises(InvalidInputError, match=f"measurement_id {taken}"):
            run_association(keyframes, group_size=7, group_overlap=2, **default_kwargs())

    def test_empty_sequence_yields_empty_map(self):
        result = run_association([], group_size=7, group_overlap=2, **default_kwargs())
        assert result.landmarks == ()
        assert result.assignments == {}

    @pytest.mark.parametrize("window", [(0, 0), (3, 3), (3, -1)])
    def test_bad_window_rejected_on_empty_sequence(self, window):
        group_size, overlap = window
        with pytest.raises(InvalidConfigurationError):
            run_association([], group_size=group_size, group_overlap=overlap, **default_kwargs())

    @pytest.mark.parametrize("window", [(1, 0), (3, 1), (7, 2), (5, 4)])
    def test_single_object_collapses_to_one_landmark(self, window):
        group_size, overlap = window
        keyframes = single_object_keyframes(12)
        result = run_association(
            keyframes, group_size=group_size, group_overlap=overlap, **default_kwargs()
        )
        assert len(result.landmarks) == 1
        assert set(result.assignments.values()) == {result.landmarks[0].landmark_id}
        assert len(result.assignments) == 12
        assert result.landmarks[0].refined_pose is not None

    def test_exclusion_conservation_and_class_purity(self):
        keyframes = []
        mid = 1
        for k in range(10):
            ms = [
                make_measurement(mid, kf_id=k, pos=(0, 0, 0), gt=1),
                make_measurement(mid + 1, kf_id=k, pos=(0.4, 0, 0), gt=2),
                make_measurement(mid + 2, kf_id=k, cls="chair", pos=(5, 0, 0), gt=3),
            ]
            mid += 3
            keyframes.append(make_keyframe(k, ms))
        result = run_association(keyframes, group_size=4, group_overlap=1, **default_kwargs())
        all_ids = [m.measurement_id for kf in keyframes for m in kf.measurements]
        assert_exclusion_and_conservation(result, all_ids)

    def test_determinism_same_seed(self):
        keyframes = single_object_keyframes(9)
        a = run_association(keyframes, group_size=3, group_overlap=1, **default_kwargs(seed=5))
        b = run_association(keyframes, group_size=3, group_overlap=1, **default_kwargs(seed=5))
        assert a.assignments == b.assignments
        assert [lm.landmark_id for lm in a.landmarks] == [lm.landmark_id for lm in b.landmarks]
        for la, lb in zip(a.landmarks, b.landmarks):
            assert la.measurement_ids == lb.measurement_ids
            assert np.array_equal(la.refined_pose.position, lb.refined_pose.position)

    def test_flat_mode_reduces_to_singleton_tracks(self):
        keyframes = []
        mid = 1
        for k in range(5):
            ms = [
                make_measurement(mid, kf_id=k, pos=(0, 0, 0), gt=1),
                make_measurement(mid + 1, kf_id=k, pos=(0.4, 0, 0), gt=2),
            ]
            mid += 2
            keyframes.append(make_keyframe(k, ms))
        result = run_association(keyframes, group_size=1, group_overlap=0, **default_kwargs())
        # every group is one keyframe; each landmark's per-group contribution
        # must therefore be a single measurement
        assert len(result.groups) == 5
        for lm in result.landmarks:
            for g, _ in lm.associated_tracks:
                contributions = [
                    m
                    for m in lm.measurements
                    if m.keyframe_id == result.groups[g - 1].keyframe_ids[0]
                ]
                assert len(contributions) <= 1

    def test_shared_overlap_measurement_assigned_once(self):
        keyframes = single_object_keyframes(8)
        result = run_association(keyframes, group_size=4, group_overlap=2, **default_kwargs())
        assert sorted(result.assignments) == list(range(1, 9))

    def test_pose_selected_once_per_final_landmark(self, monkeypatch):
        """The pose depends only on the final measurements: one selection per landmark."""
        selected = []

        def counting_refine_pose(landmark, params):
            selected.append(landmark.landmark_id)
            return refine_pose(landmark, params)

        monkeypatch.setattr(association_module, "refine_pose", counting_refine_pose)
        keyframes = []
        mid = 1
        for k in range(10):
            ms = [
                make_measurement(mid, kf_id=k, pos=(0, 0, 0), gt=1),
                make_measurement(mid + 1, kf_id=k, pos=(0.4, 0, 0), gt=2),
                make_measurement(mid + 2, kf_id=k, cls="chair", pos=(5, 0, 0), gt=3),
            ]
            mid += 3
            keyframes.append(make_keyframe(k, ms))
        result = run_association(keyframes, group_size=3, group_overlap=1, **default_kwargs())
        assert len(result.groups) > 1
        assert sorted(selected) == sorted(lm.landmark_id for lm in result.landmarks)
        for lm in result.landmarks:
            assert lm.refined_pose is refine_pose(lm, REFINE)
