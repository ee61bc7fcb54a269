"""Global association of group tracks into map-level landmarks.

Each keyframe group's tracks are assigned to existing landmarks or open new
ones by seeded Gibbs sweeps. The unnormalized weight of an existing landmark
is count * best-measurement-likelihood under the landmark's pose mixture
(a Chinese-restaurant-style prior), scaled by a fixed boost when the track
and the landmark already share a measurement through the group overlap.
Tracks from the same group can never join the same landmark, landmarks of a
different class get zero weight, and so does any landmark that saw one of
the track's keyframes as a different detection (two detections in one
keyframe are two objects). The "new landmark" option carries one weight per
run, ``AssocParams.new_weight``.

Every landmark's mixture shares one diagonal base covariance, which the map
checks once per run (:class:`~objassoc.mixture.SharedCovariance`). The
covariance also caches each measurement's observation vector the first time
the run meets the measurement, so extending a landmark only stacks cached
vectors, and weighting a track computes no rotation vector.

A landmark only grows, in the order its tracks joined. ``LandmarkMap._extend``
alone derives what it knows besides its tracks: a joining track appends the
measurements the landmark lacks to its measurements, ids and keyframe index,
and their rows to its mixture. ``detach`` replays ``_extend`` over the tracks
left. Groups run in order and a landmark gains at most one track per group, so
join order is key order. ``attach`` refuses a track whose group the landmark
already holds, so that exclusion is a precondition of the map, not a weight.

One weighting per track and group. Earlier groups' tracks never move, and a
track never joins a landmark that holds another track of its group. So while
a group is sampled, a landmark that existed at its start changes only by
taking one of the group's tracks, and a landmark opened in the group holds at
most one of them. A track's weight for a landmark it may join is therefore
its weight against the landmark's group-start state, and every other weight
is 0.0. :func:`gibbs_assign_group` weights each track once against the
group-start landmarks and runs its sweeps on plain positions; the map changes
only at the end of the group, when the final assignment is applied. A visit's
vector is the track's group-start weights, with 0.0 where the group's other
tracks are, then "new". It draws its choice from that vector by inverse CDF
(:func:`draw_index`): a plain-float running sum, searched for one
``rng.random()`` value, so a visit makes no NumPy call besides that one.

A landmark of the track's class is first checked against the underflow
radius R of the shared covariance (see :mod:`objassoc.mixture`): every
component density is exactly 0.0 at a point farther than R in position from
the component's mean, whatever the rotation. Each landmark's mixture holds the
axis-aligned box of its component means' positions, and a landmark whose box
is more than R from the track's box along some axis has weight exactly 0.0,
so it is not scored. The weight list keeps one entry per landmark, so
weights and draws are the same as without the gate.

A weighting makes at most one likelihood kernel call. The landmarks that pass
every cheap check (class, box gate, keyframe conflict) are scored
together: their mixtures are joined in one
:class:`~objassoc.mixture.MixtureStack`, and each score equals the one a stack
of that mixture alone would give, bit for bit. The stack refuses mixtures of
different covariances, so it is also the check that a map has one covariance.

A landmark opened in a group and left empty by its last sweep never reaches
the map. Each landmark's representative pose depends only on its final
measurements, so it is selected once, after the last group.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .core import Keyframe, ObjectMeasurement, Pose6D, is_int
from .errors import InvalidConfigurationError, InvalidInputError, NumericalError
from .grouping import KeyframeGroup, form_groups
from .mixture import (
    LandmarkGMM, MixtureStack, SharedCovariance, boxes_apart, build_gmm,
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
    new_weight: float
    overlap_boost: float
    gibbs_sweeps: int
    rng_seed: int

    def __post_init__(self):
        if not 0.0 < self.new_weight < math.inf:
            raise InvalidConfigurationError(
                f"new_weight must be positive and finite, got {self.new_weight!r}"
            )
        if not 1.0 <= self.overlap_boost < math.inf:
            raise InvalidConfigurationError(
                f"overlap_boost must be finite and >= 1, got {self.overlap_boost!r}"
            )
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

    ``measurements``, ``gmm``, ``measurement_ids`` and
    ``keyframe_to_measurement`` are derived by the :class:`LandmarkMap`,
    which appends each joining track's new measurements to them, so they
    follow ``associated_tracks``, the order the tracks joined (the map file
    writes the tracks sorted). A landmark built by hand must set them
    consistently; ``gmm`` is None while there are no measurements.
    """

    landmark_id: int
    class_label: str
    associated_tracks: list[tuple[int, int]] = field(default_factory=list)
    measurements: list[ObjectMeasurement] = field(default_factory=list)
    gmm: Optional[LandmarkGMM] = None
    refined_pose: Optional[Pose6D] = None
    measurement_ids: frozenset[int] = frozenset()
    keyframe_to_measurement: dict[int, int] = field(default_factory=dict)

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
    """One track's unnormalised weight per landmark; "new" weighs ``AssocParams.new_weight``."""

    landmark_weights: tuple[float, ...]


def association_weights(
    track: GroupTrack,
    landmarks: Sequence[GlobalLandmark],
    params: AssocParams,
) -> AssociationWeights:
    """Assignment weights for one track against the given landmarks.

    A landmark's weight is ``count * max_measurement_likelihood``, or 0.0
    when the landmark cannot take the track: it is empty, of another class,
    or saw one of the track's keyframes as a different detection. Same-group
    exclusion is not checked here: :meth:`LandmarkMap.attach` refuses it, and
    :func:`gibbs_assign_group` zeroes the landmarks the group's other tracks
    hold. A landmark whose ``gmm.box`` is more than its covariance's
    underflow radius from the track's position box along some axis is that
    far from every track measurement, so its weight is exactly 0.0 and it is
    not scored. The landmarks left to score are scored
    in one call, on one :class:`~objassoc.mixture.MixtureStack`, which raises
    InvalidInputError unless their mixtures share one covariance, as a
    :class:`LandmarkMap`'s do. The overlap boost is applied as the final
    multiplicative factor, and only when the track shares at least one
    measurement_id with the landmark.
    """
    if not track.measurements:
        raise InvalidInputError("cannot weight an empty track")
    box = position_box(track.measurements)
    weights = [0.0] * len(landmarks)
    scored = [i for i, landmark in enumerate(landmarks) if _can_take(track, box, landmark)]
    if scored:
        stack = MixtureStack([landmarks[i].gmm for i in scored])
        track_ids = track.measurement_ids
        for i, score in zip(scored, max_measurement_likelihood(track, stack)):
            weight = landmarks[i].count * score
            if weight and not track_ids.isdisjoint(landmarks[i].measurement_ids):
                weight *= params.overlap_boost
            weights[i] = weight
    return AssociationWeights(landmark_weights=tuple(weights))


def _can_take(track: GroupTrack, box: tuple, landmark: GlobalLandmark) -> bool:
    """False when the landmark's weight for the track is 0.0 without scoring it."""
    return not (
        landmark.count == 0
        or landmark.class_label != track.class_label
        or boxes_apart(box, landmark.gmm.box, landmark.gmm.covariance.gate_radius)
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
        self._next_id = 1

    def landmark_list(self) -> list[GlobalLandmark]:
        # Ids only grow and deletion keeps dict order, so the dict is in id order.
        return list(self.landmarks.values())

    def attach(self, track: GroupTrack, landmark_id: Optional[int] = None) -> GlobalLandmark:
        """Assign a track to an existing landmark, or a fresh one when id is None.

        Raises InvalidInputError, leaving the map as it was, when the track is
        already attached, the id names no landmark, the landmark's class is
        not the track's or the landmark already holds a track of the track's
        group.
        """
        key = (track.group_index, track.track_index)
        if key in self.track_assignments:
            raise InvalidInputError(f"track {key} is already attached")
        if landmark_id is None:
            landmark_id = self._next_id
            self._next_id += 1
            self.landmarks[landmark_id] = GlobalLandmark(
                landmark_id=landmark_id, class_label=track.class_label
            )
        landmark = self.landmarks.get(landmark_id)
        if landmark is None:
            raise InvalidInputError(f"no landmark with id {landmark_id!r}")
        if landmark.class_label != track.class_label:
            raise InvalidInputError("landmark and track class labels differ")
        if any(group == key[0] for group, _ in landmark.associated_tracks):
            raise InvalidInputError(f"landmark {landmark_id} already has a track of group {key[0]}")
        landmark.associated_tracks.append(key)
        self._tracks[key] = track
        self.track_assignments[key] = landmark_id
        self._extend(landmark, track)
        return landmark

    def detach(self, track: GroupTrack) -> None:
        key = (track.group_index, track.track_index)
        landmark_id = self.track_assignments.pop(key, None)
        if landmark_id is None:
            return
        landmark = self.landmarks[landmark_id]
        landmark.associated_tracks.remove(key)
        landmark.measurements, landmark.measurement_ids = [], frozenset()
        landmark.keyframe_to_measurement, landmark.gmm = {}, None
        for held in landmark.associated_tracks:
            self._extend(landmark, self._tracks[held])

    def _extend(self, landmark: GlobalLandmark, track: GroupTrack) -> None:
        """Append the track's measurements the landmark lacks, with ids, keyframes and rows."""
        new = [m for m in track.measurements if m.measurement_id not in landmark.measurement_ids]
        if not new:
            return
        landmark.measurements.extend(new)
        landmark.measurement_ids = landmark.measurement_ids.union(m.measurement_id for m in new)
        for m in new:
            landmark.keyframe_to_measurement.setdefault(m.keyframe_id, m.measurement_id)
        landmark.gmm = build_gmm(new, self.covariance, landmark.gmm)


def draw_index(weights: Sequence[float], rng: np.random.Generator) -> int:
    """Draw an index with probability proportional to its weight, by inverse CDF.

    ``weights`` are a visit's unnormalised weights, nonnegative with a
    positive sum. Their running sum, each entry divided by the last, is
    searched for one ``rng.random()`` value: the first index whose scaled
    sum exceeds it is drawn. A zero weight repeats the sum before it, so it
    is never drawn. A sum that is not finite raises NumericalError.
    """
    cdf = list(accumulate(weights))
    last = cdf[-1]
    if not math.isfinite(last):
        raise NumericalError(f"visit weights sum to {last!r}; is assoc.overlap_boost too large?")
    return bisect_right(cdf, rng.random(), key=lambda c: c / last)


def gibbs_assign_group(
    state: LandmarkMap, tracks: Sequence[GroupTrack], params: AssocParams
) -> None:
    """Sample landmark assignments for one group's tracks.

    Runs ``gibbs_sweeps`` sweeps over the tracks in track_index order. Each
    visit draws the track's landmark, or a new one, from its weights with the
    track taken out, and the group's other tracks where they are, which
    enforces same-group exclusion. Assignments stand after the final sweep.

    Each track is weighted once, before the first draw, against the
    group-start landmarks: their states change only by taking a track of the
    group, which the group's other tracks may then not join. The sweeps keep
    one position per track: below ``n``, the number of group-start
    landmarks, a group-start landmark; from ``n`` on, one opened in this
    group, in the order opened. A visit's vector is the track's group-start
    weights with 0.0 at the positions the group's other tracks hold, then
    ``params.new_weight``; a draw of ``n`` opens the next position. A live
    map would also list the landmarks opened in the group, each 0.0 for this
    track: empty, or holding another track of the group. Zeros add nothing
    to a running sum, so that vector draws the same landmark.

    At the end of the group the positions are applied in order. A group-start
    landmark takes its holder; an opened position its holder as a new
    landmark, and one nobody holds skips its id, as if it had been opened and
    emptied. So ids and map bytes are those of the live-map sampler, and each
    landmark's mixture is extended at most once per group, by a track it gained.
    """
    if not tracks:
        return
    groups = {t.group_index for t in tracks}
    if len(groups) != 1:
        raise InvalidInputError(f"tracks from mixed groups: {sorted(groups)}")
    ordered = sorted(tracks, key=lambda t: t.track_index)
    if len({t.track_index for t in ordered}) != len(ordered):
        raise InvalidInputError("duplicate track_index within group")

    start = state.landmark_list()
    n = len(start)
    weighted = [association_weights(track, start, params).landmark_weights for track in ordered]
    held: list[Optional[int]] = [None] * len(ordered)
    opened = 0
    for _ in range(params.gibbs_sweeps):
        for i, weights in enumerate(weighted):
            held[i] = None
            raw = list(weights)
            for position in held:
                if position is not None and position < n:
                    raw[position] = 0.0
            raw.append(params.new_weight)
            held[i] = draw_index(raw, state.rng)
            if held[i] == n:
                held[i] += opened
                opened += 1

    holders = dict(zip(held, ordered))
    for position in range(n + opened):
        track = holders.get(position)
        if track is not None:
            state.attach(track, start[position].landmark_id if position < n else None)
        elif position >= n:
            state._next_id += 1  # opened, then emptied: its id stays unused


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
