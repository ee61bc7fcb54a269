"""Global association of group tracks into map-level landmarks.

Each keyframe group's tracks are assigned to existing landmarks or open new
ones by seeded Gibbs sweeps. The unnormalized weight of an existing landmark
is count * best-measurement-likelihood under the landmark's pose mixture
(a Chinese-restaurant-style prior), scaled by a fixed boost when the track
and the landmark already share a measurement through the group overlap.
Tracks from the same group can never join the same landmark, landmarks of a
different class get zero weight, and so does any landmark that saw one of
the track's keyframes as a different detection (two detections in one
keyframe are two objects). The "new landmark" option carries
alpha_new * base_density.

Every landmark's mixture shares one base covariance, which the map checks and
factors once per run (:class:`~objassoc.mixture.SharedCovariance`). The
covariance also caches each measurement's observation vector and its whitened
form the first time the run meets the measurement, so attaching or detaching
a track only stacks cached rows, and weighting a track computes no rotation
vector and no triangular solve.

Everything a landmark knows besides its tracks is derived from its track set
in one place, ``LandmarkMap._rebuild``, which every change of a landmark goes
through: measurements, measurement ids, keyframe index, mixture, the set of
groups and the box of its measurements' positions, and a memo of each
track's weight before the overlap boost. A key names one track of the run and
tracks are read in sorted key order, so every derived field is a function of
the key set alone, and a weight reads only the track and those fields. The
map therefore keeps one state cache for all its landmarks, keyed by the
frozenset of track keys: a known track set gets its state back, the very same
mixture and memo included, whichever landmark holds it now (a visit mostly
returns a track where it was, or, when it was alone, to a new landmark); a new
one is derived once and kept with an empty memo.

States carry across groups. Once a group is done, ``collect_garbage`` keeps
the states of the current track sets only, each with a new empty memo, since
the group's tracks are never weighted again. A visit of the next group that
takes its track back out of a landmark restores this group-start state
instead of deriving it again. Each track set is thus derived at most once per
group and each (track, track set) pair scored once; weights, draws and maps
are the same as without the cache and the memo.

A visit draws its choice by inverse CDF (:func:`draw_index`), which is
NumPy's own algorithm for a weighted draw of one index without its argument
checks, so the drawn indices and the generator states are the same.

On a memo miss, a landmark of the track's class is first checked against
the underflow radius R of the shared covariance (see :mod:`objassoc.mixture`):
every component density is exactly 0.0 at a point farther than R in position
from the component's mean, whatever the rotation. Each landmark state holds
the axis-aligned box of its measurements' positions, and a landmark whose box
is more than R from the track's box along some axis has weight exactly 0.0,
so it is not scored. The 0.0 is memoised like any other weight, and the
weight list keeps one entry per landmark, so probabilities and draws are the
same as without the gate.

A visit makes at most one likelihood kernel call. The memo misses that pass
every cheap check (class, box gate, same group, keyframe conflict) are scored
together: their mixtures are joined in one
:class:`~objassoc.mixture.MixtureStack`, and each score equals the one a stack
of that mixture alone would give, bit for bit. The stack refuses mixtures of
different covariances, so it is also the check that a map has one covariance.

Groups are processed strictly in order; assignments of earlier groups are
frozen, so the sampler only conditions on them. Empty landmarks are garbage
collected after each group. Each landmark's representative pose depends only
on its final measurements, so it is selected once, after the last group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import Keyframe, ObjectMeasurement, Pose6D, is_int
from .errors import InvalidConfigurationError, InvalidInputError
from .grouping import KeyframeGroup, form_groups
from .mixture import (
    LandmarkGMM, MixtureStack, SharedCovariance, boxes_apart, build_gmm, component_box,
    max_measurement_likelihood, position_box,
)
from .refine import RefineParams, refine_pose
from .tracking import GroupTrack, TrackerParams, associate_within_group

ROTATION_VOLUME = (2.0 * math.pi) ** 3


def base_density_for_volume(workspace_volume_m3: float) -> float:
    """Uniform pseudo-likelihood of a new landmark over position and rotation."""
    if workspace_volume_m3 <= 0.0:
        raise InvalidConfigurationError("workspace volume must be positive")
    return 1.0 / (workspace_volume_m3 * ROTATION_VOLUME)


@dataclass(frozen=True)
class AssocParams:
    alpha_new: float
    overlap_boost: float
    gibbs_sweeps: int
    base_density: float
    rng_seed: int

    def __post_init__(self):
        values = (self.alpha_new, self.overlap_boost, self.base_density)
        if not all(math.isfinite(v) for v in values):
            raise InvalidConfigurationError(
                f"alpha_new, overlap_boost and base_density must be finite: {values}"
            )
        if self.alpha_new <= 0.0 or self.base_density <= 0.0:
            raise InvalidConfigurationError("alpha_new and base_density must be positive")
        if self.overlap_boost < 1.0:
            raise InvalidConfigurationError("overlap_boost must be >= 1")
        if not is_int(self.gibbs_sweeps) or self.gibbs_sweeps < 1:
            raise InvalidConfigurationError(
                f"gibbs_sweeps must be an integer >= 1, got {self.gibbs_sweeps!r}"
            )
        if not is_int(self.rng_seed) or self.rng_seed < 0:
            raise InvalidConfigurationError(
                f"rng_seed must be an integer >= 0, got {self.rng_seed!r}"
            )


@dataclass
class GlobalLandmark:
    """A map-level landmark aggregating tracks believed to be one object.

    ``measurements``, ``gmm``, ``measurement_ids``, ``keyframe_to_measurement``,
    ``groups``, ``box`` and ``weight_memo`` are the tracks' state, which the
    :class:`LandmarkMap` derives or restores from its cache; a landmark built by
    hand must set them consistently. ``groups`` holds the tracks' group indices
    and ``box`` the measurements' position box, None while there are none.
    """

    landmark_id: int
    class_label: str
    associated_tracks: list[tuple[int, int]] = field(default_factory=list)
    measurements: list[ObjectMeasurement] = field(default_factory=list)
    gmm: Optional[LandmarkGMM] = None
    refined_pose: Optional[Pose6D] = None
    measurement_ids: frozenset[int] = frozenset()
    keyframe_to_measurement: dict[int, int] = field(default_factory=dict)
    groups: frozenset[int] = frozenset()
    box: Optional[tuple[float, ...]] = None
    # id(track) -> (track, weight before the overlap boost) for the current track set;
    # holding the track keeps its id from being reused while the entry lives.
    weight_memo: dict[int, tuple[GroupTrack, float]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def count(self) -> int:
        return len(self.measurements)

    def conflicts_on_keyframe(self, track: GroupTrack) -> bool:
        """True when track and landmark saw the same keyframe as different detections.

        Two simultaneous detections in one keyframe are necessarily two
        different objects, so such a merge is always wrong.
        """
        for m in track.measurements:
            held = self.keyframe_to_measurement.get(m.keyframe_id)
            if held is not None and held != m.measurement_id:
                return True
        return False


@dataclass(frozen=True)
class AssociationWeights:
    """Per-landmark and new-landmark weights for one track, plus normalization."""

    landmark_ids: tuple[int, ...]
    landmark_weights: tuple[float, ...]
    new_weight: float

    @property
    def probabilities(self) -> np.ndarray:
        """Normalized distribution over (landmarks..., new)."""
        raw = np.array(self.landmark_weights + (self.new_weight,))
        return raw / raw.sum()


def association_weights(
    track: GroupTrack,
    landmarks: Sequence[GlobalLandmark],
    params: AssocParams,
) -> AssociationWeights:
    """Assignment weights for one track against the current landmark set.

    A landmark's weight before the boost, ``count * max_measurement_likelihood``
    or 0.0 when the landmark cannot take the track, is memoised in the
    landmark's ``weight_memo``. The memo belongs to the landmark's current
    track set: every change of the landmark sets the memo of its new track
    set, restored from earlier or new and empty. A landmark whose ``box`` is
    more than its covariance's underflow radius from the track's position box
    along some axis is that far from every track measurement, so its weight
    is exactly 0.0 and it is not scored. The landmarks left to score are
    scored in one call, on one :class:`~objassoc.mixture.MixtureStack`, which
    raises InvalidInputError unless their mixtures share one covariance, as a
    :class:`LandmarkMap`'s do. The overlap boost is applied
    as the final multiplicative factor on every call, and only when the track
    shares at least one measurement_id with the landmark.
    """
    if not track.measurements:
        raise InvalidInputError("cannot weight an empty track")
    box = None  # the track's position box, computed on the first memo miss
    weights = []
    scored = []  # indices of the memo misses that pass every cheap check
    for landmark in landmarks:
        memo = landmark.weight_memo.get(id(track))
        if memo is not None:
            weights.append(memo[1])
            continue
        if box is None:
            box = position_box(track.measurements)
        if _can_take(track, box, landmark):
            scored.append(len(weights))
            weights.append(None)
        else:
            landmark.weight_memo[id(track)] = (track, 0.0)
            weights.append(0.0)
    if scored:
        stack = MixtureStack([landmarks[i].gmm for i in scored])
        for i, score in zip(scored, max_measurement_likelihood(track, stack)):
            landmark = landmarks[i]
            weights[i] = landmark.count * score
            landmark.weight_memo[id(track)] = (track, weights[i])
    track_ids = track.measurement_ids
    return AssociationWeights(
        landmark_ids=tuple(lm.landmark_id for lm in landmarks),
        landmark_weights=tuple(
            weight * params.overlap_boost
            if weight and not track_ids.isdisjoint(lm.measurement_ids)
            else weight
            for weight, lm in zip(weights, landmarks)
        ),
        new_weight=params.alpha_new * params.base_density,
    )


def _can_take(track: GroupTrack, box: tuple, landmark: GlobalLandmark) -> bool:
    """False when the landmark's weight for the track is 0.0 without scoring it."""
    return not (
        landmark.count == 0
        or landmark.class_label != track.class_label
        or boxes_apart(box, landmark.box, landmark.gmm.covariance.gate_radius)
        or track.group_index in landmark.groups
        or landmark.conflicts_on_keyframe(track)
    )


class LandmarkMap:
    """Mutable map state owned by a single association run."""

    def __init__(self, base_cov: np.ndarray, rng: np.random.Generator):
        self.covariance = SharedCovariance(base_cov)
        self.rng = rng
        self.landmarks: dict[int, GlobalLandmark] = {}
        self.track_assignments: dict[tuple[int, int], int] = {}
        self._tracks: dict[tuple[int, int], GroupTrack] = {}
        # frozenset of track keys -> the derived fields and weight memo of that
        # track set, from this group or carried from its start. See _rebuild.
        self._states: dict[frozenset[tuple[int, int]], tuple] = {}
        self._next_id = 1

    def landmark_list(self) -> list[GlobalLandmark]:
        # Ids only grow and deletion keeps dict order, so the dict is in id order.
        return list(self.landmarks.values())

    def attach(self, track: GroupTrack, landmark_id: Optional[int] = None) -> GlobalLandmark:
        """Assign a track to an existing landmark, or a fresh one when id is None."""
        if landmark_id is None:
            landmark_id = self._next_id
            self._next_id += 1
            self.landmarks[landmark_id] = GlobalLandmark(
                landmark_id=landmark_id, class_label=track.class_label
            )
        landmark = self.landmarks[landmark_id]
        if landmark.count and landmark.class_label != track.class_label:
            raise InvalidInputError("landmark and track class labels differ")
        key = (track.group_index, track.track_index)
        landmark.associated_tracks.append(key)
        self._tracks[key] = track
        self.track_assignments[key] = landmark_id
        self._rebuild(landmark)
        return landmark

    def detach(self, track: GroupTrack) -> None:
        key = (track.group_index, track.track_index)
        landmark_id = self.track_assignments.pop(key, None)
        if landmark_id is None:
            return
        landmark = self.landmarks[landmark_id]
        landmark.associated_tracks.remove(key)
        self._rebuild(landmark)

    def collect_garbage(self) -> None:
        """Drop empty landmarks and carry the current track sets' states into the next group.

        Only the current track sets keep their states, each with a new empty
        memo: the group's tracks are never weighted again. The next group
        restores such a state when a visit takes its track back out.
        """
        for landmark_id in [k for k, lm in self.landmarks.items() if lm.count == 0]:
            del self.landmarks[landmark_id]
        states, self._states = self._states, {}
        for landmark in self.landmarks.values():
            # _rebuild stored the current track set's state, so it is always there.
            key = frozenset(landmark.associated_tracks)
            landmark.weight_memo = {}
            self._states[key] = states[key][:-1] + (landmark.weight_memo,)

    def _rebuild(self, landmark: GlobalLandmark) -> None:
        """Set every derived field and the weight memo for the landmark's current tracks.

        The state of the same track set, from earlier in the group or carried
        from its start and whichever landmark held it, is restored, mixture,
        box and memo included; otherwise it is derived and kept with an empty
        memo. This is the only place a landmark's derived fields change.
        """
        key = frozenset(landmark.associated_tracks)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = self._derive(key) + ({},)
        (
            landmark.measurements,
            landmark.measurement_ids,
            landmark.keyframe_to_measurement,
            landmark.gmm,
            landmark.groups,
            landmark.box,
            landmark.weight_memo,
        ) = state

    def _derive(self, key: frozenset[tuple[int, int]]) -> tuple:
        """Deduplicated measurements, their ids, keyframe index, mixture, groups and box."""
        seen: set[int] = set()
        measurements: list[ObjectMeasurement] = []
        by_keyframe: dict[int, int] = {}
        for track_key in sorted(key):
            for m in self._tracks[track_key].measurements:
                if m.measurement_id not in seen:
                    seen.add(m.measurement_id)
                    measurements.append(m)
                    by_keyframe.setdefault(m.keyframe_id, m.measurement_id)
        gmm = build_gmm(measurements, self.covariance) if measurements else None
        box = component_box(gmm) if gmm else None
        groups = frozenset(group_index for group_index, _ in key)
        return measurements, frozenset(seen), by_keyframe, gmm, groups, box


def draw_index(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index of a normalised distribution by inverse CDF.

    This is the algorithm NumPy's ``Generator`` uses for a weighted draw of
    one index, without its argument checks: the cumulative sum, divided by
    its last entry, is searched for one ``rng.random()`` value. The index and
    the generator state after the draw are the same as NumPy's.
    """
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def gibbs_assign_group(
    state: LandmarkMap, tracks: Sequence[GroupTrack], params: AssocParams
) -> None:
    """Sample landmark assignments for one group's tracks.

    Runs ``gibbs_sweeps`` sweeps over the tracks in track_index order; each
    visit detaches the track, recomputes weights against the live map (which
    enforces same-group exclusion through the other tracks' current
    assignments) and samples from the normalized distribution. Assignments
    stand after the final sweep; empty landmarks are then dropped.
    """
    if not tracks:
        return
    groups = {t.group_index for t in tracks}
    if len(groups) != 1:
        raise InvalidInputError(f"tracks from mixed groups: {sorted(groups)}")
    ordered = sorted(tracks, key=lambda t: t.track_index)
    if len({t.track_index for t in ordered}) != len(ordered):
        raise InvalidInputError("duplicate track_index within group")

    for _ in range(params.gibbs_sweeps):
        for track in ordered:
            state.detach(track)
            candidates = state.landmark_list()
            weights = association_weights(track, candidates, params)
            choice = draw_index(weights.probabilities, state.rng)
            if choice == len(candidates):
                state.attach(track, None)
            else:
                state.attach(track, candidates[choice].landmark_id)
    state.collect_garbage()


@dataclass(frozen=True)
class AssociationResult:
    """Final landmark map plus the measurement-to-landmark table."""

    landmarks: tuple[GlobalLandmark, ...]
    assignments: dict[int, int]
    groups: tuple[KeyframeGroup, ...]


def run_association(
    keyframes: Sequence[Keyframe],
    *,
    group_size: int,
    group_overlap: int,
    tracker_params: TrackerParams,
    assoc_params: AssocParams,
    base_cov: np.ndarray,
    refine_params: RefineParams,
) -> AssociationResult:
    """Full pipeline: grouping, within-group tracking, global assignment, pose selection.

    Returns the landmark map and a table mapping every measurement_id to its
    landmark_id; a measurement shared between overlapping groups is recorded
    once, under the later group's assignment. With group_size=1, overlap=0
    this degenerates to flat per-measurement association. Two measurements
    with one measurement_id raise InvalidInputError before any work is done.
    """
    seen: set[int] = set()
    for kf in keyframes:
        for m in kf.measurements:
            if m.measurement_id in seen:
                raise InvalidInputError(f"duplicate measurement_id {m.measurement_id}")
            seen.add(m.measurement_id)
    rng = np.random.default_rng(assoc_params.rng_seed)
    state = LandmarkMap(base_cov=base_cov, rng=rng)
    assignments: dict[int, int] = {}

    groups = form_groups(keyframes, group_size, group_overlap)
    by_id = {kf.keyframe_id: kf for kf in keyframes}
    for group in groups:
        group_kfs = [by_id[i] for i in group.keyframe_ids]
        tracks = associate_within_group(group_kfs, group.group_index, tracker_params)
        gibbs_assign_group(state, tracks, assoc_params)
        for track in tracks:
            landmark_id = state.track_assignments[(group.group_index, track.track_index)]
            for m in track.measurements:
                assignments[m.measurement_id] = landmark_id

    landmarks = state.landmark_list()
    for landmark in landmarks:
        landmark.refined_pose = refine_pose(landmark, refine_params)
    return AssociationResult(
        landmarks=tuple(landmarks),
        assignments=assignments,
        groups=tuple(groups),
    )
