"""Value types and geometric primitives shared by the association pipeline.

Conventions
-----------
- Positions are metres in a fixed world frame.
- Orientations are unit quaternions in (w, x, y, z) order, canonicalized at
  construction so that the first nonzero component is positive (q and -q
  describe the same rotation).
- Angles returned by :func:`rotation_angle` are degrees in [0, 180].
- All types are immutable values; every operation here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidInputError

QUAT_NORM_TOL = 1e-9
APPEARANCE_NORM_TOL = 1e-6


def is_int(value) -> bool:
    """True for a Python or NumPy integer; a bool is no integer here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a finite Python or NumPy real number; a string or a bool is no number."""
    try:
        return (is_int(value) or isinstance(value, (float, np.floating))) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def vector_norm(x: np.ndarray) -> float:
    """Euclidean norm of a real 1-D array.

    Bit-identical to ``float(np.linalg.norm(x))``, which computes a 1-D real
    norm as ``sqrt(x.dot(x))`` too, without its dispatch overhead.
    """
    return math.sqrt(float(x.dot(x)))


def canonical_quaternion(quat) -> np.ndarray:
    """Return quat or -quat such that the first nonzero component is positive."""
    return _canonical(np.array(quat, dtype=float).reshape(4))


def _canonical(q: np.ndarray) -> np.ndarray:
    """q, or -q when q's first nonzero component is negative."""
    for component in q.tolist():
        if component > 0.0:
            return q
        if component < 0.0:
            return -q
    return q


@dataclass(frozen=True, eq=False)
class Pose6D:
    """A 6-DoF pose: world position plus unit-quaternion orientation."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        # Each input is converted to a fresh array once; its checks read plain floats.
        pos = np.array(self.position, dtype=float)
        if pos.shape != (3,):
            raise InvalidInputError(f"position must have shape (3,), got {pos.shape}")
        if not all(map(math.isfinite, pos.tolist())):
            raise InvalidInputError("position components must be finite")
        pos.flags.writeable = False
        quat = np.array(self.orientation, dtype=float)
        if quat.shape != (4,):
            raise InvalidInputError(f"orientation must have shape (4,), got {quat.shape}")
        norm = vector_norm(quat)
        if not math.isfinite(norm) or abs(norm - 1.0) > QUAT_NORM_TOL:
            raise InvalidInputError(f"orientation must be a unit quaternion, |q| = {norm!r}")
        quat = _canonical(quat)
        quat.flags.writeable = False
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", quat)


@dataclass(frozen=True, eq=False)
class BoundingBox2D:
    """Axis-aligned pixel box; min corner strictly before max corner."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        vals = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(map(math.isfinite, vals)) or min(vals) < 0.0:
            raise InvalidInputError(f"bounding box values must be finite and >= 0: {vals}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise InvalidInputError(f"bounding box must have positive extent: {vals}")


@dataclass(frozen=True, eq=False)
class ObjectMeasurement:
    """One detected object instance in one keyframe.

    ``gt_landmark_id`` is ground truth carried for evaluation only; the
    association stages never read it.
    """

    measurement_id: int
    keyframe_id: int
    class_label: str
    bbox: BoundingBox2D
    pose: Pose6D
    appearance: np.ndarray
    gt_landmark_id: Optional[int] = None

    def __post_init__(self):
        app = np.array(self.appearance, dtype=float)
        if app.ndim != 1 or app.size < 1:
            raise InvalidInputError("appearance must be a 1-D vector")
        # A sum of squares is finite only when every component is, so the
        # components are looked at one by one only when the norm is not.
        norm = vector_norm(app)
        if not math.isfinite(norm) and not all(map(math.isfinite, app.tolist())):
            raise InvalidInputError("appearance components must be finite")
        if abs(norm - 1.0) > APPEARANCE_NORM_TOL:
            raise InvalidInputError(f"appearance must be unit-norm, |e| = {norm!r}")
        app.flags.writeable = False
        object.__setattr__(self, "appearance", app)


@dataclass(frozen=True, eq=False)
class Keyframe:
    """A keyframe with the object measurements detected in it."""

    keyframe_id: int
    timestamp: float
    camera_pose: Pose6D
    measurements: tuple[ObjectMeasurement, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not is_real(self.timestamp):
            raise InvalidInputError(f"timestamp must be a finite number, got {self.timestamp!r}")
        ms = tuple(self.measurements)
        for m in ms:
            if m.keyframe_id != self.keyframe_id:
                raise InvalidInputError(
                    f"measurement {m.measurement_id} carries keyframe_id "
                    f"{m.keyframe_id}, expected {self.keyframe_id}"
                )
        object.__setattr__(self, "measurements", ms)


# ---------------------------------------------------------------------------
# quaternion helpers


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a * b for (w, x, y, z) quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conjugate(q) -> np.ndarray:
    w, x, y, z = q
    return np.array([w, -x, -y, -z])


def quat_from_axis_angle(axis, angle_rad: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    norm = vector_norm(axis)
    if norm == 0.0:
        raise InvalidInputError("rotation axis must be nonzero")
    half = 0.5 * angle_rad
    q = np.empty(4)
    q[0] = math.cos(half)
    q[1:] = (math.sin(half) / norm) * axis
    return q


def quat_from_rotation_vector(rotvec) -> np.ndarray:
    """Exponential map: rotation vector (axis * angle, radians) to quaternion."""
    v = np.asarray(rotvec, dtype=float)
    angle = vector_norm(v)
    if angle < 1e-12:
        q = np.array([1.0, 0.0, 0.0, 0.0])
        q[1:] += 0.5 * v  # first-order term keeps the map smooth near zero
        return q / vector_norm(q)
    return quat_from_axis_angle(v, angle)


def quat_to_rotation_vector(quat) -> np.ndarray:
    """Logarithm map: unit quaternion to rotation vector with magnitude in [0, pi]."""
    q = canonical_quaternion(quat)
    w = min(max(float(q[0]), -1.0), 1.0)
    vec = q[1:]
    sin_half = vector_norm(vec)
    if sin_half < 1e-12:
        return np.zeros(3)
    angle = 2.0 * math.atan2(sin_half, w)
    return (angle / sin_half) * vec


# ---------------------------------------------------------------------------
# metric operations


def translation_distance(a: Pose6D, b: Pose6D) -> float:
    """Euclidean distance between the positions of two poses, metres."""
    return vector_norm(a.position - b.position)


def rotation_angle(a: Pose6D, b: Pose6D) -> float:
    """Geodesic angle between two orientations, degrees in [0, 180].

    Equal to 2*acos(|<q_a, q_b>|), computed as 4*atan2(|q_a - q_b|, |q_a + q_b|)
    with q_b on q_a's hemisphere, which stays accurate near zero where acos
    amplifies rounding; zero iff the rotations are equal up to quaternion
    sign.
    """
    return unit_quaternion_angle(a.orientation, b.orientation)


def unit_quaternion_angle(qa: np.ndarray, qb: np.ndarray) -> float:
    """:func:`rotation_angle` of two unit orientations such as :class:`Pose6D`'s."""
    if float(np.dot(qa, qb)) < 0.0:
        qb = -qb
    half = math.atan2(vector_norm(qa - qb), vector_norm(qa + qb))
    return min(math.degrees(4.0 * half), 180.0)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each one BLAS ``ddot`` as ``x.dot(y)`` computes it.

    Elementwise products summed by ``sum`` or ``einsum`` round differently.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def pairwise_pose_differences(
    quats: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(angle in degrees, distance) of every ordered pair of n poses, as (n, n) arrays.

    ``quats`` holds n unit orientations such as :class:`Pose6D`'s and
    ``positions`` n positions. Entry (i, j) equals, bit for bit,
    ``unit_quaternion_angle(quats[i], quats[j])`` and
    ``vector_norm(positions[i] - positions[j])``: the same dots (one ``ddot``
    each), the same square roots, ``math.atan2`` per pair (NumPy's
    ``arctan2`` may round differently) and the same degree conversion. Entry
    (j, i) repeats (i, j), whose difference vectors are only negated, and the
    diagonal is 0.0.
    """
    quats = np.ascontiguousarray(quats, dtype=float)
    positions = np.ascontiguousarray(positions, dtype=float)
    minus = quats[:, None, :] - quats[None, :, :]
    plus = quats[:, None, :] + quats[None, :, :]
    minus_norm = np.sqrt(_row_dots(minus, minus))
    plus_norm = np.sqrt(_row_dots(plus, plus))
    # Where q_j is on the other hemisphere it is negated, and q_i - (-q_j) == q_i + q_j exactly.
    flip = _row_dots(quats[:, None, :], quats[None, :, :]) < 0.0
    numer = np.where(flip, plus_norm, minus_norm).ravel().tolist()
    denom = np.where(flip, minus_norm, plus_norm).ravel().tolist()
    half = np.array(list(map(math.atan2, numer, denom))).reshape(flip.shape)
    angle = np.minimum(np.degrees(4.0 * half), 180.0)
    offsets = positions[:, None, :] - positions[None, :, :]
    return angle, np.sqrt(_row_dots(offsets, offsets))


def appearance_distance(e1, e2) -> float:
    """Cosine distance 1 - <e1, e2> between unit embeddings, in [0, 2]."""
    a = np.asarray(e1, dtype=float)
    b = np.asarray(e2, dtype=float)
    if a.shape != b.shape:
        raise InvalidInputError(
            f"appearance dimensions differ: {a.shape} vs {b.shape}"
        )
    return 1.0 - float(np.dot(a, b))
