"""The group sampler equals a plain Gibbs sampler on the live map.

``gibbs_assign_group`` weights each track once per group against the
group-start landmarks, samples on positions and changes the map only at the
end of the group. The reference here is the plain sampler: every visit
detaches the track, weights it against every landmark of the live map, draws
and attaches it, and a landmark emptied during a group stays in place until
the group ends. The live map's vector also lists the landmarks opened in the
group, each 0.0; without those entries it must equal the vector the group
sampler draws from, bit for bit. Both must write the same map bytes and leave
the generator in the same state.
"""

import copy
import math
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest

import objassoc.association as association_module
from objassoc import records
from objassoc.association import (
    LandmarkMap,
    association_weights,
    draw_index,
    gibbs_assign_group,
    run_association,
)
from objassoc.config import RunConfig, config_to_mapping
from objassoc.synth import PRESET_NAMES, generate, preset
from objassoc.tracking import GroupTrack

from conftest import ASSOC, make_measurement


def live_map_gibbs(state, tracks, params, visits):
    """The reference sampler.

    Appends to ``visits`` each visit's group-start landmark count and its
    unnormalised (landmarks..., new) weights on the live map. A landmark that
    holds another track of the group gets 0.0 here, since ``attach`` refuses
    a second track of one group.
    """
    ordered = sorted(tracks, key=lambda t: t.track_index)
    start = len(state.landmarks)
    for _ in range(params.gibbs_sweeps):
        for track in ordered:
            state.detach(track)
            candidates = state.landmark_list()
            raw = list(association_weights(track, candidates, params).landmark_weights)
            for i, landmark in enumerate(candidates):
                if any(g == track.group_index for g, _ in landmark.associated_tracks):
                    raw[i] = 0.0
            raw.append(params.new_weight)
            visits.append((start, raw))
            choice = draw_index(raw, state.rng)
            landmark_id = candidates[choice].landmark_id if choice < len(candidates) else None
            state.attach(track, landmark_id)
    for landmark_id in [k for k, lm in state.landmarks.items() if lm.count == 0]:
        del state.landmarks[landmark_id]


def without_opened(visits):
    """Each live-map vector without its entries for landmarks opened in the group.

    Those entries must be exactly 0.0: the landmark is empty, or holds
    another track of the group.
    """
    for start, raw in visits:
        assert raw[start:-1] == [0.0] * (len(raw) - 1 - start)
    return [raw[:start] + raw[-1:] for start, raw in visits]


def weight_bytes(weights):
    """The bits of a weight list; equal weights are equal distributions."""
    return np.array(weights).tobytes()


def recording_draws(monkeypatch):
    """The weight lists ``gibbs_assign_group`` draws from, in draw order."""
    drawn = []

    def recording(weights, rng):
        drawn.append(weight_bytes(weights))
        return draw_index(weights, rng)

    monkeypatch.setattr(association_module, "draw_index", recording)
    return drawn


def preset_run(monkeypatch, tmp_path, sampler, name, variant, seed):
    """(map bytes, the map) of one preset run with ``sampler`` assigning each group."""
    maps = []

    def recording(state, tracks, params):
        maps.append(state)
        sampler(state, tracks, params)

    monkeypatch.setattr(association_module, "gibbs_assign_group", recording)
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
    path = tmp_path / f"{name}_{variant}_{seed}.assoc.jsonl"
    records.write_map(result.landmarks, result.assignments, config_to_mapping(config), path)
    assert maps and all(state is maps[0] for state in maps)
    return path.read_bytes(), maps[0]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("variant", ["hierarchical", "flat"])
def test_the_group_sampler_writes_the_live_map_samplers_map(
    monkeypatch, tmp_path, name, variant, seed
):
    drawn = recording_draws(monkeypatch)
    sampled, state = preset_run(monkeypatch, tmp_path, gibbs_assign_group, name, variant, seed)
    visits = []

    def reference(state, tracks, params):
        live_map_gibbs(state, tracks, params, visits)

    expected, reference_state = preset_run(monkeypatch, tmp_path, reference, name, variant, seed)
    assert drawn == [weight_bytes(raw) for raw in without_opened(visits)]
    assert sampled == expected
    assert state.rng.bit_generator.state == reference_state.rng.bit_generator.state


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
    lone = GroupTrack(10, 0, "door", [make_measurement(10, kf_id=10)])
    weights = association_weights(lone, state.landmark_list(), ASSOC).landmark_weights
    assert all(weights)
    params = replace(ASSOC, gibbs_sweeps=8, new_weight=2.0 * math.fsum(weights))
    return state, lone, params


def test_a_lone_track_keeps_its_empty_landmarks_in_place(monkeypatch):
    state, lone, params = lone_track_case()
    reference = copy.deepcopy(state)
    drawn = recording_draws(monkeypatch)
    gibbs_assign_group(state, [lone], params)
    visits = []
    live_map_gibbs(reference, [lone], params, visits)

    # The track drew "new" on each of the first seven sweeps, so each live-map
    # vector held one more 0.0 entry, its last landmark. The last sweep put it
    # in landmark 9.
    assert [len(raw) for _, raw in visits] == list(range(10, 18))
    assert visits[-1][1][9:-1] == [0.0] * 7
    # A 0.0 entry adds nothing to the running sum the draw searches, so every
    # entry the compacted vector keeps has the same running sum in both.
    compacted = without_opened(visits)
    for (_, raw), short in zip(visits, compacted):
        full, kept = list(accumulate(raw)), list(accumulate(short))
        assert full[:9] + full[-1:] == kept

    assert drawn == [weight_bytes(raw) for raw in compacted]
    assert state.track_assignments == reference.track_assignments
    assert state.track_assignments[10, 0] == 9
    assert list(state.landmarks) == list(reference.landmarks) == list(range(1, 10))
    assert state.rng.bit_generator.state == reference.rng.bit_generator.state


def test_landmarks_opened_and_emptied_leave_their_ids_unused():
    state, lone, params = lone_track_case()
    reference = copy.deepcopy(state)
    gibbs_assign_group(state, [lone], params)
    live_map_gibbs(reference, [lone], params, [])

    # Seven landmarks were opened and emptied again (ids 10 to 16), so the
    # next landmark is 17, as on the live map.
    later = GroupTrack(11, 0, "door", [make_measurement(11, kf_id=11, pos=(9.0, 0.0, 0.0))])
    assert state.attach(later).landmark_id == reference.attach(later).landmark_id == 17
