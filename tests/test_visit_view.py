"""A later Gibbs visit reuses the track's weights from its last visit.

Each visit's weight vector, 0.0 entries included, must equal a full
weighting of a copy of the map with the track taken out and every memo
emptied; and a sampler that weights every landmark on every visit must
write the same map bytes.
"""

import copy
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import objassoc.association as association_module
from objassoc import records
from objassoc.association import (
    AssociationWeights,
    LandmarkMap,
    association_weights,
    draw_index,
    run_association,
)
from objassoc.config import RunConfig, config_to_mapping
from objassoc.synth import PRESET_NAMES, generate, preset
from objassoc.tracking import GroupTrack

from conftest import ASSOC, make_measurement


def full_weighting(state, track, params):
    """The track's weights on a copy of the map without the track and with empty memos.

    The track is copied with the map: the covariance caches each measurement's
    rows by identity, and a row whitened again in another batch may round
    differently.
    """
    copied, track = copy.deepcopy((state, track))
    for landmark in copied.landmarks.values():
        landmark.weight_memo.clear()
    for memo in (s[-1] for s in copied._states.values()):
        memo.clear()
    copied.detach(track)
    return association_weights(track, copied.landmark_list(), params)


def checking_visits(monkeypatch):
    """Check every visit's view against a full weighting; returns the vectors seen."""
    original = association_module._TrackView.weigh
    vectors = []

    def checked(view, track, state, params):
        original(view, track, state, params)
        expected = full_weighting(state, track, params)
        assert len(view.weights) == len(state.landmarks)
        assert np.array(view.weights).tobytes() == (
            np.array(expected.landmark_weights).tobytes()
        )
        assert view.new_weight == expected.new_weight
        assert view.cdf.tobytes() == association_module._cdf(expected.probabilities).tobytes()
        vectors.append(list(view.weights))

    monkeypatch.setattr(association_module._TrackView, "weigh", checked)
    return vectors


def full_visits(state, tracks, params):
    """The sampler without views: every visit detaches, weights every landmark and attaches."""
    ordered = sorted(tracks, key=lambda t: t.track_index)
    for _ in range(params.gibbs_sweeps):
        for track in ordered:
            state.detach(track)
            candidates = state.landmark_list()
            weights = association_weights(track, candidates, params)
            choice = draw_index(weights.probabilities, state.rng)
            landmark_id = candidates[choice].landmark_id if choice < len(candidates) else None
            state.attach(track, landmark_id)
    state.collect_garbage()


def preset_run(name, variant, seed=0):
    config = RunConfig().with_seed(seed)
    if variant == "flat":
        config = config.flat()
    dataset = generate(replace(preset(name), seed=seed))
    result = run_association(
        dataset.keyframes,
        group_size=config.group_size,
        group_overlap=config.group_overlap,
        tracker_params=config.tracker_params(),
        assoc_params=config.assoc_params(),
        base_cov=config.base_cov(),
        refine_params=config.refine_params(),
    )
    return config, result


def map_bytes(tmp_path, config, result):
    path = tmp_path / "map.assoc.jsonl"
    records.write_map(result.landmarks, result.assignments, config_to_mapping(config), path)
    return path.read_bytes()


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("variant", ["hierarchical", "flat"])
def test_every_visit_sees_the_full_weighting(monkeypatch, name, variant):
    vectors = checking_visits(monkeypatch)
    preset_run(name, variant)
    assert vectors


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("variant", ["hierarchical", "flat"])
def test_weighting_every_landmark_on_every_visit_writes_the_same_map(
    monkeypatch, tmp_path, name, variant, seed
):
    config, result = preset_run(name, variant, seed)
    with_views = map_bytes(tmp_path, config, result)
    monkeypatch.setattr(association_module, "gibbs_assign_group", full_visits)
    config, result = preset_run(name, variant, seed)
    assert map_bytes(tmp_path, config, result) == with_views


def lone_track_case():
    """Nine one-track landmarks of earlier groups around a track of a group of its own.

    The track lies within the underflow radius of every landmark, at distances
    that give weights of different sizes, and "new" carries twice their sum.
    """
    state = LandmarkMap(RunConfig().base_cov(), np.random.default_rng(6))
    for group in range(1, 10):
        x = 0.25 + 0.05 * group
        m = make_measurement(group, kf_id=group, pos=(x, 0.0, 0.0))
        state.attach(GroupTrack(group, 0, "door", [m]))
        state.collect_garbage()
    lone = GroupTrack(10, 0, "door", [make_measurement(10, kf_id=10)])
    weights = association_weights(lone, state.landmark_list(), ASSOC).landmark_weights
    assert all(weights)
    new_weight = 2.0 * math.fsum(weights)
    params = replace(ASSOC, gibbs_sweeps=8, base_density=new_weight / ASSOC.alpha_new)
    return state, lone, params


def test_a_lone_track_keeps_its_empty_landmarks_in_place(monkeypatch):
    state, lone, params = lone_track_case()
    reference = copy.deepcopy(state)
    vectors = checking_visits(monkeypatch)
    association_module.gibbs_assign_group(state, [lone], params)
    full_visits(reference, [lone], params)

    # The track drew "new" on every sweep, so each visit's vector held one more
    # 0.0 entry, its last landmark, inside numpy's 8-entry pairwise-sum unroll.
    assert [len(v) for v in vectors] == list(range(9, 17))
    assert vectors[-1][9:] == [0.0] * 7
    new_weight = params.alpha_new * params.base_density
    sums = [np.array(v + [new_weight]).sum() for v in vectors]
    compacted = [np.array(v[:9] + [new_weight]).sum() for v in vectors]
    assert sums != compacted  # without the 0.0 entries in place, some draw would differ

    assert state.track_assignments == reference.track_assignments
    assert list(state.landmarks) == list(reference.landmarks)
    assert state.rng.bit_generator.state == reference.rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e22)), max_size=40),
    st.floats(min_value=1e-300, max_value=1e-6),
    st.integers(1, 12),
    st.integers(0, 2**63 - 1),
)
def test_a_cached_cdf_with_appended_zeros_draws_as_draw_index(weights, new_weight, zeros, seed):
    view = association_module._TrackView()
    view.weights, view.memos, view.new_weight = list(weights), [None] * len(weights), new_weight
    view.seen = 0
    grown = SimpleNamespace(landmarks=[None] * (len(weights) + zeros), _changes=[], _positions={})
    view.weigh(None, grown, ASSOC)  # nothing logged: only the appended 0.0 entries
    padded = tuple(weights) + (0.0,) * zeros
    assert tuple(view.weights) == padded
    probabilities = AssociationWeights(tuple(range(len(padded))), padded, new_weight).probabilities
    cached, direct = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert association_module._draw(view.cdf, cached) == draw_index(probabilities, direct)
        assert cached.bit_generator.state == direct.bit_generator.state
