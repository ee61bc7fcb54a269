"""Ground-truth-labeled synthetic sequences for association experiments.

A camera walks a waypoint polyline, yawed along its direction of travel.
Each keyframe records a measurement for every landmark inside the field of
view and range that survives dropout. Measurement poses are the true world
poses perturbed by Gaussian noise, optionally hit by a gross rotation
outlier that mimics a viewpoint-prediction failure. Appearance embeddings
are built from a per-similarity-group prototype plus a scaled per-instance
offset and noise, so instance_distinctness near zero yields near-identical
embeddings for objects in the same group. A minimal pinhole model supplies
plausible bounding boxes.

One array pass per scene, before the keyframe loop, decides what each
keyframe sees: a landmark at offset ``rel`` from the camera, at distance
``dist``, is seen exactly when ``dist > 0``, ``dist <= max_range`` and
``dot(rel, forward) >= dist * cos(fov_half_angle_deg)``. The half-angle is
below 90 degrees, as a pinhole camera's must be, so every seen landmark
lies in front of the camera and projects at a positive depth.

Everything is deterministic given the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .core import (
    BoundingBox2D,
    Keyframe,
    ObjectMeasurement,
    Pose6D,
    canonical_quaternion,
    is_int,
    is_real,
    quat_from_axis_angle,
    quat_from_rotation_vector,
    quat_multiply,
    vector_norm,
)
from .errors import InvalidConfigurationError, InvalidInputError

FRAME_RATE_HZ = 30.0
BASE_STEP_M = 0.1
# Most frames a camera path may walk: a path whose length over its step exceeds
# this is refused when the scenario is built, so generation always ends.
MAX_FRAMES = 1_000_000

# Fixed pinhole intrinsics used only for bounding-box plausibility.
IMAGE_WIDTH = 640
IMAGE_HEIGHT = 480
FOCAL_PX = 350.0
OBJECT_HALF_SIZE_M = 0.45

PRESET_NAMES = ("aisle_slow", "aisle_quick", "office_desk")

# Keyframe x landmark pairs per block of the visibility pass, so its
# temporaries stay small however long the scene.
_VISIBILITY_BLOCK_PAIRS = 1 << 16


def _check_vector(values, size: int, what: str) -> None:
    """Refuse anything but a sequence of ``size`` numbers that ``is_real`` accepts."""
    items = tuple(values) if isinstance(values, (tuple, list, np.ndarray)) else ()
    if len(items) != size or not all(map(is_real, items)):
        raise InvalidConfigurationError(f"{what} must be {size} finite numbers, got {values!r}")


@dataclass(frozen=True)
class LandmarkSpec:
    class_label: str
    position: tuple[float, float, float]
    orientation: tuple[float, float, float, float]
    similarity_group: int

    def __post_init__(self):
        if not isinstance(self.class_label, str):
            raise InvalidConfigurationError(
                f"class_label must be a string, got {self.class_label!r}"
            )
        _check_vector(self.position, 3, "landmark position")
        _check_vector(self.orientation, 4, "landmark orientation")
        Pose6D(self.position, self.orientation)  # refuses a non-unit orientation
        if not is_int(self.similarity_group):
            raise InvalidConfigurationError(
                f"similarity_group must be an integer, got {self.similarity_group!r}"
            )


@dataclass(frozen=True)
class CameraPath:
    waypoints: tuple[tuple[float, float, float], ...]
    speed_factor: float = 1.0

    def __post_init__(self):
        if not isinstance(self.waypoints, (tuple, list, np.ndarray)):
            raise InvalidConfigurationError(
                f"waypoints must be a sequence of waypoints, got {self.waypoints!r}"
            )
        if len(self.waypoints) < 2:
            raise InvalidConfigurationError("camera path needs at least two waypoints")
        for waypoint in self.waypoints:
            _check_vector(waypoint, 3, "waypoint")
        if all(np.array_equal(w, self.waypoints[0]) for w in self.waypoints):
            raise InvalidConfigurationError("camera path has zero length")
        if not (is_real(self.speed_factor) and self.speed_factor > 0.0):
            raise InvalidConfigurationError(
                f"speed_factor must be positive and finite, got {self.speed_factor!r}"
            )
        frames = sum(_segments(self.waypoints)[1]) / (BASE_STEP_M * self.speed_factor)
        if frames > MAX_FRAMES:
            raise InvalidConfigurationError(
                f"camera path walks {frames:.3g} frames at speed factor "
                f"{self.speed_factor!r}; at most {MAX_FRAMES} are allowed"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    landmarks: tuple[LandmarkSpec, ...]
    camera: CameraPath
    confusable_gap: float = 0.4
    keyframe_stride: int = 5
    fov_half_angle_deg: float = 30.0
    max_range: float = 7.0
    pos_noise_sigma_m: float = 0.05
    rot_noise_sigma_deg: float = 2.0
    appearance_noise_sigma: float = 0.03
    instance_distinctness: float = 0.05
    dropout_rate: float = 0.0
    rot_outlier_rate: float = 0.0
    rot_outlier_min_deg: float = 90.0
    appearance_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.landmarks, (tuple, list)):
            raise InvalidConfigurationError(
                f"landmarks must be a sequence of LandmarkSpecs, got {self.landmarks!r}"
            )
        if not self.landmarks:
            raise InvalidConfigurationError("scenario needs at least one landmark")
        for spec in self.landmarks:
            if not isinstance(spec, LandmarkSpec):
                raise InvalidConfigurationError(f"landmarks must be LandmarkSpecs, got {spec!r}")
        if not isinstance(self.camera, CameraPath):
            raise InvalidConfigurationError(f"camera must be a CameraPath, got {self.camera!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is float and not is_real(value):
                raise InvalidConfigurationError(f"{f.name} must be a finite number, got {value!r}")
        if self.confusable_gap <= 0.0:
            raise InvalidConfigurationError("confusable_gap must be positive")
        for name, least in (("keyframe_stride", 1), ("appearance_dim", 2), ("seed", 0)):
            value = getattr(self, name)
            if not is_int(value) or value < least:
                raise InvalidConfigurationError(
                    f"{name} must be an integer >= {least}, got {value!r}"
                )
        if len({spec.similarity_group for spec in self.landmarks}) > self.appearance_dim:
            raise InvalidConfigurationError(
                "appearance_dim must be at least the number of similarity groups"
            )
        for name in ("pos_noise_sigma_m", "rot_noise_sigma_deg", "appearance_noise_sigma"):
            value = getattr(self, name)
            if value < 0.0:
                raise InvalidConfigurationError(f"{name} must be >= 0, got {value!r}")
        for name in ("dropout_rate", "rot_outlier_rate", "instance_distinctness"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidConfigurationError(f"{name} must lie in [0, 1], got {value}")
        if not 0.0 < self.fov_half_angle_deg < 90.0:
            raise InvalidConfigurationError(
                f"fov_half_angle_deg must lie in (0, 90), got {self.fov_half_angle_deg!r}"
            )
        if self.max_range <= 0.0:
            raise InvalidConfigurationError(f"max_range must be positive, got {self.max_range!r}")


@dataclass(frozen=True)
class GroundTruthLandmark:
    gt_landmark_id: int
    class_label: str
    pose: Pose6D


@dataclass(frozen=True)
class Dataset:
    keyframes: tuple[Keyframe, ...]
    gt_landmarks: tuple[GroundTruthLandmark, ...]
    config: Optional[ScenarioConfig] = None

    def __post_init__(self):
        ids = [kf.keyframe_id for kf in self.keyframes]
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise InvalidInputError("keyframe ids must be strictly increasing")
        known: set[int] = set()
        for gt in self.gt_landmarks:
            if gt.gt_landmark_id in known:
                raise InvalidInputError(f"duplicate gt_landmark_id {gt.gt_landmark_id}")
            known.add(gt.gt_landmark_id)
        seen: set[int] = set()
        for kf in self.keyframes:
            for m in kf.measurements:
                if m.measurement_id in seen:
                    raise InvalidInputError(f"duplicate measurement_id {m.measurement_id}")
                seen.add(m.measurement_id)
                if m.gt_landmark_id is not None and m.gt_landmark_id not in known:
                    raise InvalidInputError(
                        f"measurement {m.measurement_id} references unknown "
                        f"gt_landmark_id {m.gt_landmark_id}"
                    )

    @property
    def measurement_count(self) -> int:
        return sum(len(kf.measurements) for kf in self.keyframes)


def _segments(waypoints) -> tuple[list[np.ndarray], list[float]]:
    """The polyline's segment vectors and their lengths."""
    points = [np.asarray(w, dtype=float) for w in waypoints]
    seg_vecs = [b - a for a, b in zip(points, points[1:])]
    return seg_vecs, [math.hypot(*v) for v in seg_vecs]


def _walk_path(camera: CameraPath, stride: int) -> list[tuple[int, np.ndarray, float]]:
    """Index, position and yaw of every ``stride``-th frame along the polyline.

    The camera advances one step per frame at the configured speed; frames
    between keyframes only advance the arc length.
    """
    points = [np.asarray(w, dtype=float) for w in camera.waypoints]
    seg_vecs, seg_lens = _segments(camera.waypoints)
    total = sum(seg_lens)
    step = BASE_STEP_M * camera.speed_factor
    frames = []
    s = 0.0
    index = 0
    # The slack is relative, so even a path far shorter than a metre walks
    # only the frames its length allows, which CameraPath bounds.
    while s <= total * (1.0 + 1e-9):
        if index % stride == 0:
            remaining = s
            for seg, (vec, length) in enumerate(zip(seg_vecs, seg_lens)):
                if remaining <= length or seg == len(seg_vecs) - 1:
                    t = min(remaining / length, 1.0) if length > 0 else 0.0
                    pos = points[seg] + t * vec
                    yaw = math.atan2(vec[1], vec[0])
                    frames.append((index, pos, yaw))
                    break
                remaining -= length
        s += step
        index += 1
    return frames


def _camera_pose(position: np.ndarray, yaw: float) -> Pose6D:
    return Pose6D(position, quat_from_axis_angle([0.0, 0.0, 1.0], yaw))


def _project_bbox(cam_pos: np.ndarray, yaw: float, target: np.ndarray) -> BoundingBox2D:
    """Pinhole projection of a fixed-size footprint, clamped to the image."""
    rel = target - cam_pos
    forward = np.array([math.cos(yaw), math.sin(yaw), 0.0])
    left = np.array([-math.sin(yaw), math.cos(yaw), 0.0])
    depth = float(np.dot(rel, forward))
    u = IMAGE_WIDTH / 2.0 + FOCAL_PX * (-float(np.dot(rel, left)) / depth)
    v = IMAGE_HEIGHT / 2.0 + FOCAL_PX * (-float(rel[2]) / depth)
    half = FOCAL_PX * OBJECT_HALF_SIZE_M / depth
    x_min = min(max(u - half, 0.0), IMAGE_WIDTH - 1.0)
    x_max = max(min(u + half, float(IMAGE_WIDTH)), x_min + 1.0)
    y_min = min(max(v - half, 0.0), IMAGE_HEIGHT - 1.0)
    y_max = max(min(v + half, float(IMAGE_HEIGHT)), y_min + 1.0)
    return BoundingBox2D(x_min, y_min, x_max, y_max)


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / vector_norm(vec)


def _visible_landmarks(frames, targets: np.ndarray, config: ScenarioConfig) -> list[list[int]]:
    """Per frame of ``_walk_path``, the increasing indices of the landmarks it sees.

    ``targets`` holds one landmark position per row; the rule is the module
    docstring's.
    """
    positions = np.array([pos for _, pos, _ in frames])
    yaws = np.array([yaw for _, _, yaw in frames])
    forwards = np.stack([np.cos(yaws), np.sin(yaws), np.zeros_like(yaws)], axis=1)
    cos_half = math.cos(math.radians(config.fov_half_angle_deg))
    block = max(1, _VISIBILITY_BLOCK_PAIRS // len(targets))
    seen: list[list[int]] = []
    for start in range(0, len(frames), block):
        # A distance that overflows is inf > max_range, and a NaN dot (inf * 0)
        # fails its comparison, so such a pair is unseen.
        with np.errstate(over="ignore", invalid="ignore"):
            rel = targets - positions[start : start + block, None]
            dist_sq = (rel * rel).sum(axis=2)
            dot = (rel * forwards[start : start + block, None]).sum(axis=2)
            dist = np.sqrt(dist_sq)
            visible = (dist_sq > 0.0) & (dist <= config.max_range) & (dot >= dist * cos_half)
        seen.extend(np.flatnonzero(row).tolist() for row in visible)
    return seen


def generate(config: ScenarioConfig) -> Dataset:
    """Simulate the camera sweep and emit the labeled dataset."""
    rng = np.random.default_rng(config.seed)

    group_ids = sorted({spec.similarity_group for spec in config.landmarks})
    # Orthonormal prototypes keep distinct similarity groups far apart in
    # appearance space; the confusion under study is within a group.
    basis, _ = np.linalg.qr(rng.normal(size=(config.appearance_dim, len(group_ids))))
    prototypes = {g: basis[:, i] for i, g in enumerate(group_ids)}
    offsets = [rng.normal(size=config.appearance_dim) for _ in config.landmarks]

    gt_landmarks = tuple(
        GroundTruthLandmark(
            gt_landmark_id=i,
            class_label=spec.class_label,
            pose=Pose6D(np.asarray(spec.position), np.asarray(spec.orientation)),
        )
        for i, spec in enumerate(config.landmarks, start=1)
    )

    keyframes: list[Keyframe] = []
    next_measurement_id = 1
    rot_sigma_rad = math.radians(config.rot_noise_sigma_deg)
    targets = [np.asarray(spec.position, dtype=float) for spec in config.landmarks]
    orientations = [np.asarray(spec.orientation, dtype=float) for spec in config.landmarks]

    frames = _walk_path(config.camera, config.keyframe_stride)
    seen = _visible_landmarks(frames, np.array(targets), config)
    for (frame_index, cam_pos, yaw), landmark_indices in zip(frames, seen):
        cam_pose = _camera_pose(cam_pos, yaw)
        measurements: list[ObjectMeasurement] = []
        for li in landmark_indices:
            spec = config.landmarks[li]
            target = targets[li]
            if config.dropout_rate > 0.0 and rng.uniform() < config.dropout_rate:
                continue

            pos = target + rng.normal(scale=config.pos_noise_sigma_m, size=3) \
                if config.pos_noise_sigma_m > 0.0 else target.copy()
            quat = orientations[li]
            if rot_sigma_rad > 0.0:
                err = quat_from_rotation_vector(rng.normal(scale=rot_sigma_rad, size=3))
                quat = quat_multiply(err, quat)
            if config.rot_outlier_rate > 0.0 and rng.uniform() < config.rot_outlier_rate:
                axis = _unit(rng.normal(size=3))
                angle = math.radians(rng.uniform(config.rot_outlier_min_deg, 180.0))
                quat = quat_multiply(quat_from_axis_angle(axis, angle), quat)
            quat = quat / vector_norm(quat)

            appearance = prototypes[spec.similarity_group] \
                + config.instance_distinctness * offsets[li]
            if config.appearance_noise_sigma > 0.0:
                appearance = appearance + rng.normal(
                    scale=config.appearance_noise_sigma, size=config.appearance_dim
                )

            measurements.append(
                ObjectMeasurement(
                    measurement_id=next_measurement_id,
                    keyframe_id=frame_index,
                    class_label=spec.class_label,
                    bbox=_project_bbox(cam_pos, yaw, target),
                    pose=Pose6D(pos, quat),
                    appearance=_unit(appearance),
                    gt_landmark_id=li + 1,
                )
            )
            next_measurement_id += 1

        keyframes.append(
            Keyframe(
                keyframe_id=frame_index,
                timestamp=frame_index / FRAME_RATE_HZ,
                camera_pose=cam_pose,
                measurements=tuple(measurements),
            )
        )

    return Dataset(keyframes=tuple(keyframes), gt_landmarks=gt_landmarks, config=config)


def _facing_minus_y() -> tuple[float, float, float, float]:
    q = quat_from_axis_angle([0.0, 0.0, 1.0], -math.pi / 2.0)
    return tuple(canonical_quaternion(q))


def _aisle_layout(gap: float) -> tuple[LandmarkSpec, ...]:
    """Three side-by-side door pairs along one wall of a straight aisle."""
    facing = _facing_minus_y()
    specs = []
    for pair, center_x in enumerate((6.0, 11.0, 16.0)):
        for k in range(2):
            specs.append(
                LandmarkSpec(
                    class_label="door",
                    position=(center_x + k * gap, 1.6, 1.0),
                    orientation=facing,
                    similarity_group=pair,
                )
            )
    return tuple(specs)


def _office_layout(gap: float) -> tuple[LandmarkSpec, ...]:
    """Five look-alike chairs in a tight row facing the approach."""
    facing = _facing_minus_y()
    ys = [(i - 2) * gap for i in range(5)]
    return tuple(
        LandmarkSpec(
            class_label="chair",
            position=(4.0, y, 0.5),
            orientation=facing,
            similarity_group=0,
        )
        for y in ys
    )


def preset(name: str) -> ScenarioConfig:
    """A fully specified confusable-object scenario by name."""
    if name == "aisle_slow" or name == "aisle_quick":
        gap = 0.4
        return ScenarioConfig(
            landmarks=_aisle_layout(gap),
            camera=CameraPath(
                waypoints=((0.0, 0.0, 1.2), (20.0, 0.0, 1.2)),
                speed_factor=1.0 if name == "aisle_slow" else 2.5,
            ),
            confusable_gap=gap,
            keyframe_stride=5,
            fov_half_angle_deg=30.0,
            max_range=7.0,
            pos_noise_sigma_m=0.05,
            rot_noise_sigma_deg=2.0,
            appearance_noise_sigma=0.03,
            instance_distinctness=0.05,
            dropout_rate=0.05,
            rot_outlier_rate=0.12,
            rot_outlier_min_deg=90.0,
        )
    if name == "office_desk":
        gap = 0.35
        return ScenarioConfig(
            landmarks=_office_layout(gap),
            camera=CameraPath(waypoints=((0.0, 0.0, 1.2), (2.6, 0.0, 1.2)), speed_factor=1.0),
            confusable_gap=gap,
            keyframe_stride=5,
            fov_half_angle_deg=30.0,
            max_range=6.0,
            pos_noise_sigma_m=0.04,
            rot_noise_sigma_deg=2.0,
            appearance_noise_sigma=0.03,
            instance_distinctness=0.02,
            dropout_rate=0.05,
            rot_outlier_rate=0.10,
            rot_outlier_min_deg=90.0,
        )
    raise InvalidInputError(
        f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
    )
