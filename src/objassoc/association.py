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
mixture and memo included, whichever landmark holds it now (a track that
moves restores the state its old landmark had before it joined, and one that
was alone and opens a new landmark brings its own state there); a new one is
derived once and kept with an empty memo. The memo object thus names a
landmark state within a group.

States carry across groups. Once a group is done, ``collect_garbage`` keeps
the states of the current track sets only, each with a new empty memo, since
the group's tracks are never weighted again. A visit of the next group that
takes its track back out of a landmark restores this group-start state
instead of deriving it again. Each track set is thus derived at most once per
group and each (track, track set) pair scored once; weights, draws and maps
are the same as without the cache and the memo.

A visit pays only for what changed since the track's last visit. Every
``_rebuild`` is logged in the map's change log, and the map keeps each
landmark's position in ``landmark_list()``, which within a group only grows
at its end. A track's first visit in a group weights it against every
landmark; the weights, the memo each was read from and the draw's CDF are
kept in a view of the track. A later visit leaves the track attached and
weights again only the logged landmarks whose memo is no longer the one the
view read: the landmark holding the track changes only through the track,
since same-group exclusion keeps the group's other tracks out of it. The
track is detached and attached only when the draw moves it. See
:func:`gibbs_assign_group`. A visit draws its choice by inverse CDF
(:func:`draw_index`), which is NumPy's own algorithm for a weighted draw of
one index without its argument checks, so the drawn indices and the generator
states are the same.

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
    ``associated_tracks`` is in the order the tracks joined; only its set
    matters, and the map file writes it sorted.
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
        return _normalised(self.landmark_weights + (self.new_weight,))


def _normalised(weights: Sequence[float]) -> np.ndarray:
    raw = np.array(weights)
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
        # Every landmark _rebuild changed since the last group ended, in order,
        # and each landmark's index in landmark_list(). Within a group landmarks
        # are only appended, so an index holds until collect_garbage.
        self._changes: list[GlobalLandmark] = []
        self._positions: dict[int, int] = {}
        self._next_id = 1

    def landmark_list(self) -> list[GlobalLandmark]:
        # Ids only grow and deletion keeps dict order, so the dict is in id order.
        return list(self.landmarks.values())

    def attach(self, track: GroupTrack, landmark_id: Optional[int] = None) -> GlobalLandmark:
        """Assign a track to an existing landmark, or a fresh one when id is None."""
        if landmark_id is None:
            landmark_id = self._next_id
            self._next_id += 1
            self._positions[landmark_id] = len(self.landmarks)
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
        restores such a state when a visit takes its track back out. The
        change log is emptied and the landmarks' positions are counted again.
        """
        for landmark_id in [k for k, lm in self.landmarks.items() if lm.count == 0]:
            del self.landmarks[landmark_id]
        self._changes = []
        self._positions = {landmark_id: i for i, landmark_id in enumerate(self.landmarks)}
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
        memo. This is the only place a landmark's derived fields change, and
        each call is logged in the map's change log.
        """
        self._changes.append(landmark)
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
    return _draw(_cdf(probabilities), rng)


def _cdf(probabilities: np.ndarray) -> np.ndarray:
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    return int(cdf.searchsorted(rng.random(), side="right"))


class _TrackView:
    """One track's weights against the map, kept from one of its visits to the next.

    ``weights`` are the track's landmark weights, boosted, in
    ``landmark_list()`` order and with the track taken out of its landmark;
    ``memos`` holds the ``weight_memo`` each weight was read from (None for
    an entry the track has not weighed), which identifies that landmark's
    state; ``cdf`` is the draw distribution over the weights and "new";
    ``seen`` is the length of the map's change log after the track's last
    visit. See :func:`gibbs_assign_group`.
    """

    __slots__ = ("weights", "memos", "new_weight", "cdf", "seen")

    def __init__(self):
        self.weights: Optional[list[float]] = None

    def weigh(self, track: GroupTrack, state: LandmarkMap, params: AssocParams) -> None:
        """Bring the weights up to date for a visit of the track."""
        if self.weights is None:
            state.detach(track)
            landmarks = state.landmark_list()
            weights = association_weights(track, landmarks, params)
            self.weights = list(weights.landmark_weights)
            self.memos = [landmark.weight_memo for landmark in landmarks]
            self.new_weight = weights.new_weight
            self.cdf = _cdf(_normalised(self.weights + [self.new_weight]))
            return
        grown = len(state.landmarks) - len(self.weights)
        if grown:
            # A landmark opened since the last visit and not logged since is
            # the track's own, which is empty without it.
            self.weights += [0.0] * grown
            self.memos += [None] * grown
        changed = bool(grown)
        stale = {}
        for landmark in state._changes[self.seen:]:
            position = state._positions[landmark.landmark_id]
            if landmark.weight_memo is self.memos[position]:
                continue
            if landmark.count and track.group_index not in landmark.groups:
                stale[position] = landmark
                continue
            # Empty, or holding a track of this group: 0.0 without a weighting.
            self.memos[position] = landmark.weight_memo
            if self.weights[position]:
                self.weights[position] = 0.0
                changed = True
        if stale:
            positions = sorted(stale)
            landmarks = [stale[position] for position in positions]
            fresh = association_weights(track, landmarks, params)
            for position, landmark, weight in zip(positions, landmarks, fresh.landmark_weights):
                self.memos[position] = landmark.weight_memo
                if weight != self.weights[position]:
                    self.weights[position] = weight
                    changed = True
        if changed:
            self.cdf = _cdf(_normalised(self.weights + [self.new_weight]))


def gibbs_assign_group(
    state: LandmarkMap, tracks: Sequence[GroupTrack], params: AssocParams
) -> None:
    """Sample landmark assignments for one group's tracks.

    Runs ``gibbs_sweeps`` sweeps over the tracks in track_index order. Each
    visit draws the track's landmark, or a new one, from its weights against
    the live map with the track taken out, which enforces same-group
    exclusion through the other tracks' current assignments. Assignments
    stand after the final sweep; empty landmarks are then dropped.

    A track's first visit detaches it, weights it against every landmark and
    keeps the weights in a :class:`_TrackView`. A later visit leaves the track
    where it is and weights only the landmarks its view has gone stale on.
    The landmark that holds the track changes only through the track, since
    the group's other tracks cannot join it, so its weight without the track
    is the one kept. Any other landmark that changed since the track's last
    visit is in the map's change log; one whose memo is not the one the view
    read from has a new track set. If it is empty or holds a track of the
    group its weight is 0.0; the others are weighted again in one
    :func:`association_weights` call. A landmark opened since then and not in
    the log is the one the track opened, empty without it: its weight is 0.0.
    Every weight, 0.0 entries included, stays at its landmark's position, so
    the distribution is the one a full weighting gives, bit for bit, and its
    CDF is built again only when a weight or the length changed. The track
    is detached and attached only when the draw moves it or opens a new
    landmark; a track that stays keeps its place in ``associated_tracks``.
    """
    if not tracks:
        return
    groups = {t.group_index for t in tracks}
    if len(groups) != 1:
        raise InvalidInputError(f"tracks from mixed groups: {sorted(groups)}")
    ordered = sorted(tracks, key=lambda t: t.track_index)
    if len({t.track_index for t in ordered}) != len(ordered):
        raise InvalidInputError("duplicate track_index within group")

    views = [_TrackView() for _ in ordered]
    for _ in range(params.gibbs_sweeps):
        for track, view in zip(ordered, views):
            view.weigh(track, state, params)
            choice = _draw(view.cdf, state.rng)
            held = state.track_assignments.get((track.group_index, track.track_index))
            if held is None or choice != state._positions[held]:
                state.detach(track)
                if choice == len(view.weights):
                    state.attach(track, None)
                else:
                    state.attach(track, state.landmark_list()[choice].landmark_id)
            view.seen = len(state._changes)
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
