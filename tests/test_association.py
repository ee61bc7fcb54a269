import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import objassoc.association as association_module
from objassoc.association import (
    GlobalLandmark,
    LandmarkMap,
    association_weights,
    gibbs_assign_group,
    run_association,
)
from objassoc.config import RunConfig
from objassoc.errors import InvalidConfigurationError, InvalidInputError
from objassoc.mixture import (
    SharedCovariance,
    build_gmm,
    max_measurement_likelihood,
    position_box,
)
from objassoc.refine import refine_pose
from objassoc.synth import PRESET_NAMES, generate, preset
from objassoc.tracking import GroupTrack

from conftest import ASSOC, REFINE, TRACKER, make_keyframe, make_measurement, score_alone

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
    lm.groups = frozenset({0})
    lm.measurements = list(measurements)
    lm.measurement_ids = frozenset(m.measurement_id for m in measurements)
    for m in measurements:
        lm.keyframe_to_measurement.setdefault(m.keyframe_id, m.measurement_id)
    covariance = _COVARIANCES.get(base_cov.tobytes())
    if covariance is None:
        covariance = _COVARIANCES[base_cov.tobytes()] = SharedCovariance(base_cov)
    lm.gmm = build_gmm(measurements, covariance)
    lm.box = position_box(measurements)
    return lm


def assert_only_the_carried_states(state):
    """Between groups the map keeps one state per landmark: its fields, with an empty memo."""
    landmarks = state.landmarks.values()
    assert set(state._states) == {frozenset(lm.associated_tracks) for lm in landmarks}
    for landmark in landmarks:
        carried = state._states[frozenset(landmark.associated_tracks)]
        current = (
            landmark.measurements,
            landmark.measurement_ids,
            landmark.keyframe_to_measurement,
            landmark.gmm,
            landmark.groups,
            landmark.box,
            landmark.weight_memo,
        )
        assert len(carried) == len(current) and all(a is b for a, b in zip(carried, current))
        assert landmark.weight_memo == {}


def recorded_derivations(monkeypatch):
    """The track sets ``LandmarkMap._derive`` is called with, in call order."""
    derived = []
    original = LandmarkMap._derive

    def recording(self, key):
        derived.append(key)
        return original(self, key)

    monkeypatch.setattr(LandmarkMap, "_derive", recording)
    return derived


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
        [("alpha_new", math.nan), ("alpha_new", math.inf), ("base_density", math.inf),
         ("overlap_boost", math.nan)],
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidConfigurationError):
            replace(ASSOC, **{field: value})

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
    def test_empty_landmark_list_normalizes_to_new(self):
        track = track_of([make_measurement(1)])
        weights = association_weights(track, [], ASSOC)
        assert weights.probabilities.tolist() == [1.0]

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
        assert boosted.new_weight == unboosted.new_weight

    def test_existing_landmark_dominates_tiny_base_density(self):
        landmark = landmark_of(
            [make_measurement(i, kf_id=i, pos=(0, 0, 0)) for i in (1, 2, 3)], landmark_id=1
        )
        track = track_of([make_measurement(50, kf_id=50, pos=(0, 0, 0))], group_index=4)
        params = replace(ASSOC, alpha_new=1.0, base_density=1e-6)
        weights = association_weights(track, [landmark], params)
        assert weights.landmark_weights[0] == pytest.approx(3.0 * PEAK_6D, rel=1e-12)
        assert weights.probabilities[0] > 0.99

    def test_class_mismatch_same_group_and_keyframe_conflict_zeroed(self):
        door = landmark_of([make_measurement(1, kf_id=1)], landmark_id=1)
        chair = landmark_of([make_measurement(2, kf_id=2, cls="chair")], landmark_id=2)
        taken = landmark_of([make_measurement(3, kf_id=3)], landmark_id=3)
        taken.associated_tracks = [(7, 0)]
        taken.groups = frozenset({7})
        # saw keyframe 9 as a different detection than the track did
        conflicting = landmark_of([make_measurement(4, kf_id=9)], landmark_id=4)
        track = track_of([make_measurement(9, kf_id=9)], group_index=7, track_index=1)
        weights = association_weights(
            track, [door, chair, taken, conflicting], ASSOC
        )
        assert weights.landmark_weights[1] == 0.0  # class mismatch
        assert weights.landmark_weights[2] == 0.0  # same-group exclusion
        assert weights.landmark_weights[3] == 0.0  # same-keyframe conflict
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


class TestWeightMemo:
    def test_memo_is_emptied_after_each_group_and_left_out_of_eq(self, monkeypatch):
        # Every group of every preset: TestLandmarkStateCache.
        result, state = run_preset_keeping_map(monkeypatch, "aisle_quick", "hierarchical")
        assert len(result.landmarks) > 1
        assert_only_the_carried_states(state)
        measurement = make_measurement(1)
        landmark = landmark_of([measurement])
        twin = landmark_of([measurement])
        twin.gmm = landmark.gmm
        association_weights(track_of([make_measurement(2, kf_id=2)]), [landmark], ASSOC)
        assert landmark.weight_memo and landmark == twin
        assert "weight_memo" not in repr(landmark)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("variant", ["hierarchical", "flat"])
    def test_weights_equal_a_run_without_memo(self, monkeypatch, name, variant):
        original = association_module.association_weights
        visits = []

        def checked(track, landmarks, params):
            got = original(track, landmarks, params)
            memos = [lm.weight_memo for lm in landmarks]
            for lm in landmarks:
                lm.weight_memo = {}
            try:
                expected = original(track, landmarks, params)
            finally:
                for lm, memo in zip(landmarks, memos):
                    lm.weight_memo = memo
            assert got == expected
            visits.append(track)
            return got

        monkeypatch.setattr(association_module, "association_weights", checked)
        run_preset(name, variant)
        assert visits

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


class TestLandmarkStateCache:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("variant", ["hierarchical", "flat"])
    def test_restored_state_equals_a_fresh_build(self, monkeypatch, name, variant):
        original = LandmarkMap._rebuild
        restores = []

        def checked(self, landmark):
            key = frozenset(landmark.associated_tracks)
            hit = key in self._states
            original(self, landmark)
            if not hit:
                return
            measurements, ids, by_keyframe, gmm, groups, box = self._derive(key)
            assert [m.measurement_id for m in landmark.measurements] == [
                m.measurement_id for m in measurements
            ]
            assert landmark.measurement_ids == ids
            assert landmark.keyframe_to_measurement == by_keyframe
            assert landmark.groups == groups and landmark.box == box
            if gmm is None:
                assert landmark.gmm is None
            else:
                assert landmark.gmm.components.tobytes() == gmm.components.tobytes()
                assert landmark.gmm.whitened.tobytes() == gmm.whitened.tobytes()
            restores.append(landmark)

        monkeypatch.setattr(LandmarkMap, "_rebuild", checked)
        result = run_preset(name, variant)
        # In a run of one group each track only ever opens a landmark of its own.
        assert restores or len(result.groups) == 1

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("variant", ["hierarchical", "flat"])
    def test_one_carried_state_and_an_empty_memo_after_every_group(
        self, monkeypatch, name, variant
    ):
        original = association_module.gibbs_assign_group
        landmarks_seen = []

        def checked(state, tracks, params):
            original(state, tracks, params)
            assert_only_the_carried_states(state)
            landmarks_seen.append(len(state.landmarks))

        monkeypatch.setattr(association_module, "gibbs_assign_group", checked)
        result = run_preset(name, variant)
        assert landmarks_seen[-1] == len(result.landmarks)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("variant", ["hierarchical", "flat"])
    def test_forced_misses_give_the_same_map_with_more_scoring(self, monkeypatch, name, variant):
        scored = []  # the mixtures of each kernel call, which scores a stack of them
        reused = []  # changed landmarks a later visit could weight but did not score

        def counting(candidate, target):
            scored.append(target.mixtures)
            return max_measurement_likelihood(candidate, target)

        original_weigh = association_module._TrackView.weigh

        def watching(view, track, state, params):
            if view.weights is None:  # a first visit weights every landmark, in both runs
                return original_weigh(view, track, state, params)
            changed = {id(lm): lm for lm in state._changes[view.seen:]}.values()
            box = position_box(track.measurements)
            takers = [lm for lm in changed if association_module._can_take(track, box, lm)]
            calls = len(scored)
            original_weigh(view, track, state, params)
            fresh = {id(gmm) for mixtures in scored[calls:] for gmm in mixtures}
            # Its state, memo included, came back from the cache: the memo is the one
            # the view read, or it already holds the track's weight.
            reused.extend(lm for lm in takers if id(lm.gmm) not in fresh)

        monkeypatch.setattr(association_module, "max_measurement_likelihood", counting)
        monkeypatch.setattr(association_module._TrackView, "weigh", watching)
        cached = run_preset(name, variant)
        cached_scored = sum(map(len, scored))
        cached_reused = len(reused)
        scored.clear()
        original = LandmarkMap._rebuild

        def missing(self, landmark):
            # Only this track set's state: the map holds the others' current states.
            self._states.pop(frozenset(landmark.associated_tracks), None)
            original(self, landmark)

        monkeypatch.setattr(LandmarkMap, "_rebuild", missing)
        rebuilt = run_preset(name, variant)
        assert rebuilt.assignments == cached.assignments
        assert [lm.measurement_ids for lm in rebuilt.landmarks] == [
            lm.measurement_ids for lm in cached.landmarks
        ]
        assert [lm.refined_pose.position.tobytes() for lm in rebuilt.landmarks] == [
            lm.refined_pose.position.tobytes() for lm in cached.landmarks
        ]
        # A forced miss scores again every weight the cached run read back from a
        # restored state: strictly more scoring when there was one, the same otherwise.
        assert sum(map(len, scored)) == cached_scored + cached_reused
        if len(cached.groups) == 1:
            assert cached_scored == 0

    def test_restore_brings_back_the_mixture_and_its_memo(self, monkeypatch):
        scored = []

        def counting(candidate, target):
            scored.extend(target.mixtures)
            return max_measurement_likelihood(candidate, target)

        monkeypatch.setattr(association_module, "max_measurement_likelihood", counting)
        state = fresh_state()
        first = track_of([make_measurement(1, kf_id=1)], group_index=1, track_index=0)
        other = track_of([make_measurement(2, kf_id=2, pos=(0.3, 0, 0))], group_index=2)
        probe = track_of([make_measurement(3, kf_id=3, pos=(0.5, 0, 0))], group_index=3)
        landmark = state.attach(first)
        gmm = landmark.gmm
        before = association_weights(probe, [landmark], ASSOC)
        assert association_weights(probe, [landmark], ASSOC) == before
        assert len(scored) == 1
        memo = landmark.weight_memo
        assert memo
        state.attach(other, landmark.landmark_id)
        assert landmark.gmm is not gmm and landmark.weight_memo == {}
        joined = association_weights(probe, [landmark], ASSOC)
        assert len(scored) == 2 and scored[1] is landmark.gmm
        assert joined.landmark_weights[0] == 2 * score_alone(probe, landmark.gmm)
        assert joined.landmark_weights[0] > before.landmark_weights[0]
        state.detach(other)
        assert landmark.gmm is gmm and landmark.weight_memo is memo
        assert association_weights(probe, [landmark], ASSOC) == before
        assert len(scored) == 2
        assert len(state._states) == 2
        state.collect_garbage()
        assert_only_the_carried_states(state)
        assert landmark.gmm is gmm and landmark.weight_memo is not memo

    def test_the_carried_state_is_restored_in_the_next_group(self, monkeypatch):
        derived = recorded_derivations(monkeypatch)
        state = fresh_state()
        first = track_of([make_measurement(1, kf_id=1)], group_index=1, track_index=0)
        landmark = state.attach(first)
        state.collect_garbage()
        gmm, box = landmark.gmm, landmark.box
        carried = landmark.weight_memo
        later = track_of([make_measurement(2, kf_id=2, pos=(0.3, 0, 0))], group_index=2)
        state.attach(later, landmark.landmark_id)
        state.detach(later)
        assert derived == [frozenset({(1, 0)}), frozenset({(1, 0), (2, 0)})]
        assert landmark.gmm is gmm and landmark.box == box and landmark.weight_memo is carried

    def test_a_track_set_brings_its_state_to_a_new_landmark(self, monkeypatch):
        derived = recorded_derivations(monkeypatch)
        state = fresh_state()
        alone = track_of([make_measurement(1, kf_id=1)], group_index=1)
        first = state.attach(alone)
        gmm, memo = first.gmm, first.weight_memo
        state.detach(alone)
        second = state.attach(alone)  # drawn as "new": same track set, new landmark id
        assert second.landmark_id != first.landmark_id and first.count == 0
        assert second.gmm is gmm and second.weight_memo is memo
        assert derived == [frozenset({(1, 0)}), frozenset()]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("variant", ["hierarchical", "flat"])
    def test_each_track_set_derived_at_most_once_per_group(self, monkeypatch, name, variant):
        derived = Counter()  # (group index, track set) -> derivations
        groups = []
        original_derive = LandmarkMap._derive
        original_gibbs = association_module.gibbs_assign_group

        def recording_derive(self, key):
            derived[groups[-1], key] += 1
            return original_derive(self, key)

        def recording_gibbs(state, tracks, params):
            groups.append(tracks[0].group_index if tracks else None)
            original_gibbs(state, tracks, params)

        monkeypatch.setattr(LandmarkMap, "_derive", recording_derive)
        monkeypatch.setattr(association_module, "gibbs_assign_group", recording_gibbs)
        run_preset(name, variant)
        assert derived and max(derived.values()) == 1


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
            gibbs_assign_group(state, first, replace(ASSOC, base_density=1e-6))
            existing = next(iter(state.landmarks))
            second = [track_of([make_measurement(2, kf_id=9)], group_index=2, track_index=0)]
            gibbs_assign_group(state, second, replace(ASSOC, base_density=1e-6))
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


def run_preset_keeping_map(monkeypatch, name, variant):
    """(result, map) of one preset run."""
    maps = []
    original = LandmarkMap.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        maps.append(self)

    monkeypatch.setattr(LandmarkMap, "__init__", recording)
    result = run_preset(name, variant)
    (state,) = maps
    return result, state


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
