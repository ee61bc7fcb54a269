import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from objassoc.core import (
    APPEARANCE_NORM_TOL,
    QUAT_NORM_TOL,
    BoundingBox2D,
    Keyframe,
    Pose6D,
    appearance_distance,
    canonical_quaternion,
    is_real,
    quat_from_rotation_vector,
    quat_to_rotation_vector,
    rotation_angle,
    translation_distance,
    vector_norm,
)
from objassoc.errors import InvalidInputError

from conftest import (
    make_measurement,
    make_pose,
    quat_about,
    random_unit_quaternion,
    unit_appearance,
)


def trace_rotation_angle(qa, qb) -> float:
    """Independent oracle: relative rotation angle via the matrix trace."""

    def to_matrix(q):
        w, x, y, z = q
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    rel = to_matrix(qa).T @ to_matrix(qb)
    cos_angle = (np.trace(rel) - 1.0) / 2.0
    return math.degrees(math.acos(min(max(cos_angle, -1.0), 1.0)))


class TestTranslationDistance:
    def test_identity(self):
        p = make_pose(1.0, 2.0, 3.0)
        assert translation_distance(p, p) == 0.0

    def test_three_four_five(self):
        assert translation_distance(make_pose(0, 0, 0), make_pose(3, 4, 0)) == 5.0

    def test_matches_componentwise_oracle(self, rng):
        for _ in range(200):
            a = make_pose(*rng.uniform(-10, 10, size=3))
            b = make_pose(*rng.uniform(-10, 10, size=3))
            expected = math.sqrt(
                sum((float(a.position[i]) - float(b.position[i])) ** 2 for i in range(3))
            )
            assert translation_distance(a, b) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_triangle(self, rng):
        for _ in range(200):
            a, b, c = (make_pose(*rng.uniform(-10, 10, size=3)) for _ in range(3))
            assert translation_distance(a, b) == translation_distance(b, a)
            assert translation_distance(a, c) <= (
                translation_distance(a, b) + translation_distance(b, c) + 1e-12
            )


class TestRotationAngle:
    def test_identity(self):
        p = make_pose(quat=quat_about([0, 0, 1], 33.0))
        assert rotation_angle(p, p) == 0.0

    def test_antipodal(self):
        a = make_pose()
        b = make_pose(quat=quat_about([0, 0, 1], 180.0))
        assert rotation_angle(a, b) == pytest.approx(180.0, abs=1e-9)

    def test_quarter_turn_matches_trace_oracle(self):
        a = make_pose()
        b = make_pose(quat=quat_about([1, 0, 0], 90.0))
        assert rotation_angle(a, b) == pytest.approx(90.0, abs=1e-9)
        assert rotation_angle(a, b) == pytest.approx(
            trace_rotation_angle(a.orientation, b.orientation), abs=1e-6
        )

    def test_ten_thousand_random_pairs_match_trace_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            qa = random_unit_quaternion(rng)
            qb = random_unit_quaternion(rng)
            a, b = make_pose(quat=qa), make_pose(quat=qb)
            assert rotation_angle(a, b) == pytest.approx(
                trace_rotation_angle(qa, qb), abs=1e-6
            )

    def test_sign_invariance_and_range(self, rng):
        for _ in range(200):
            q = random_unit_quaternion(rng)
            a = make_pose(quat=q)
            b = make_pose(quat=-q)
            assert rotation_angle(a, b) == pytest.approx(0.0, abs=1e-5)
            c = make_pose(quat=random_unit_quaternion(rng))
            assert 0.0 <= rotation_angle(a, c) <= 180.0

    def test_symmetry(self, rng):
        for _ in range(100):
            a = make_pose(quat=random_unit_quaternion(rng))
            b = make_pose(quat=random_unit_quaternion(rng))
            assert rotation_angle(a, b) == rotation_angle(b, a)

    def test_triangle_inequality(self, rng):
        for _ in range(300):
            a, b, c = (make_pose(quat=random_unit_quaternion(rng)) for _ in range(3))
            assert rotation_angle(a, c) <= (
                rotation_angle(a, b) + rotation_angle(b, c) + 1e-6
            )


class TestAppearanceDistance:
    def test_equal(self):
        e = unit_appearance()
        assert appearance_distance(e, e) == 0.0

    def test_opposite(self):
        e = unit_appearance()
        assert appearance_distance(e, -e) == 2.0

    def test_orthogonal(self):
        assert appearance_distance(unit_appearance(index=0), unit_appearance(index=1)) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            appearance_distance(unit_appearance(dim=8), unit_appearance(dim=16))


class TestTypes:
    def test_pose_rejects_non_unit_quaternion(self):
        with pytest.raises(InvalidInputError):
            Pose6D(np.zeros(3), np.array([1.0, 0.5, 0.0, 0.0]))

    def test_pose_rejects_non_finite_position(self):
        with pytest.raises(InvalidInputError):
            Pose6D(np.array([np.nan, 0, 0]), np.array([1.0, 0, 0, 0]))

    def test_pose_canonicalizes_quaternion_sign(self):
        p = Pose6D(np.zeros(3), np.array([-1.0, 0.0, 0.0, 0.0]))
        assert p.orientation[0] == 1.0
        flipped = canonical_quaternion([0.0, -0.3, 0.4, -math.sqrt(1 - 0.25)])
        assert flipped[1] > 0

    def test_pose_is_immutable(self):
        p = make_pose(1, 2, 3)
        with pytest.raises(ValueError):
            p.position[0] = 9.0

    def test_bbox_rejects_inverted_or_negative(self):
        with pytest.raises(InvalidInputError):
            BoundingBox2D(5, 0, 4, 2)
        with pytest.raises(InvalidInputError):
            BoundingBox2D(-1, 0, 4, 2)

    def test_measurement_rejects_non_unit_appearance(self):
        with pytest.raises(InvalidInputError):
            make_measurement(1, appearance=np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_measurement_rejects_non_finite_appearance(self, bad):
        appearance = np.array([1.0, 0.0, 0.0])
        appearance[1] = bad
        with pytest.raises(InvalidInputError, match="appearance components must be finite"):
            make_measurement(1, appearance=appearance)
        with pytest.raises(InvalidInputError, match="appearance components must be finite"):
            make_measurement(1, appearance=np.array([bad, 0.0, 0.0]))

    def test_keyframe_rejects_mismatched_measurement(self):
        m = make_measurement(1, kf_id=3)
        with pytest.raises(InvalidInputError):
            Keyframe(keyframe_id=4, timestamp=0.0, camera_pose=make_pose(), measurements=(m,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, True, "0"])
    def test_keyframe_rejects_a_timestamp_that_is_no_finite_number(self, bad):
        with pytest.raises(InvalidInputError, match="timestamp must be a finite number"):
            Keyframe(keyframe_id=4, timestamp=bad, camera_pose=make_pose())


class TestRotationVector:
    def test_round_trip(self, rng):
        for _ in range(200):
            q = random_unit_quaternion(rng)
            v = quat_to_rotation_vector(q)
            assert np.linalg.norm(v) <= math.pi + 1e-12
            q2 = quat_from_rotation_vector(v)
            assert min(
                np.linalg.norm(q2 - canonical_quaternion(q)),
                np.linalg.norm(q2 + canonical_quaternion(q)),
            ) < 1e-9

    def test_identity_maps_to_zero(self):
        assert np.allclose(quat_to_rotation_vector([1.0, 0, 0, 0]), 0.0)


# ---------------------------------------------------------------------------
# vector_norm replaces np.linalg.norm in core; numpy computes a real 1-D norm as
# sqrt(x.dot(x)), so every rewritten function must equal its np.linalg.norm form.


def _np_norm(x) -> float:
    return float(np.linalg.norm(x))


def _np_rotation_angle(a, b) -> float:
    qa, qb = np.asarray(a.orientation, dtype=float), np.asarray(b.orientation, dtype=float)
    if float(np.dot(qa, qb)) < 0.0:
        qb = -qb
    half = math.atan2(_np_norm(qa - qb), _np_norm(qa + qb))
    return min(math.degrees(4.0 * half), 180.0)


def _np_quat_to_rotation_vector(quat) -> np.ndarray:
    q = canonical_quaternion(quat)
    w = min(max(float(q[0]), -1.0), 1.0)
    sin_half = _np_norm(q[1:])
    if sin_half < 1e-12:
        return np.zeros(3)
    return (2.0 * math.atan2(sin_half, w) / sin_half) * q[1:]


def _np_quat_from_rotation_vector(rotvec) -> np.ndarray:
    v = np.asarray(rotvec, dtype=float)
    angle = _np_norm(v)
    if angle < 1e-12:
        q = np.array([1.0, 0.0, 0.0, 0.0])
        q[1:] += 0.5 * v
        return q / np.linalg.norm(q)
    q = np.empty(4)
    q[0] = math.cos(0.5 * angle)
    q[1:] = (math.sin(0.5 * angle) / _np_norm(v)) * v
    return q


_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_vectors = st.lists(_floats, min_size=1, max_size=8).map(np.array)
_unit_quats = st.integers(0, 2**32 - 1).map(
    lambda seed: random_unit_quaternion(np.random.default_rng(seed))
)


class TestNormRewrite:
    @given(_vectors)
    def test_vector_norm(self, x):
        assert vector_norm(x) == _np_norm(x)

    @given(st.tuples(_floats, _floats, _floats), st.tuples(_floats, _floats, _floats))
    def test_translation_distance(self, p, q):
        a, b = make_pose(*p), make_pose(*q)
        assert translation_distance(a, b) == _np_norm(a.position - b.position)

    @given(_unit_quats, _unit_quats)
    def test_rotation_angle(self, qa, qb):
        a, b = make_pose(quat=qa), make_pose(quat=qb)
        assert rotation_angle(a, b) == _np_rotation_angle(a, b)

    @given(_unit_quats | st.sampled_from([np.array([1.0, 0.0, 0.0, 0.0]),
                                          np.array([0.0, 0.0, 0.0, 1.0])]))
    def test_quat_to_rotation_vector(self, q):
        assert np.array_equal(quat_to_rotation_vector(q), _np_quat_to_rotation_vector(q))

    @given(st.tuples(_floats, _floats, _floats).map(np.array)
           | st.tuples(*[st.floats(-1e-12, 1e-12)] * 3).map(np.array))
    def test_quat_from_rotation_vector(self, v):
        assert np.array_equal(quat_from_rotation_vector(v), _np_quat_from_rotation_vector(v))

    @given(_unit_quats, st.floats(-3e-9, 3e-9))
    def test_unit_quaternion_check(self, q, stretch):
        q = q * (1.0 + stretch)
        accepted = abs(_np_norm(q) - 1.0) <= QUAT_NORM_TOL
        try:
            make_pose(quat=q)
        except InvalidInputError:
            assert not accepted
        else:
            assert accepted

    @given(st.integers(0, 2**32 - 1), st.floats(-3e-6, 3e-6))
    def test_unit_appearance_check(self, seed, stretch):
        e = np.random.default_rng(seed).normal(size=8)
        e = e / np.linalg.norm(e) * (1.0 + stretch)
        accepted = abs(_np_norm(e) - 1.0) <= APPEARANCE_NORM_TOL
        try:
            make_measurement(1, appearance=e)
        except InvalidInputError:
            assert not accepted
        else:
            assert accepted


_GOOD_POSITION = (0.5, 1.0, 2.0)
_GOOD_QUAT = (0.5, 0.5, 0.5, 0.5)
_GOOD_APPEARANCE = (0.5, -0.5, 0.5, -0.5)
_GOOD_BOX = (10.0, 20.0, 50.0, 60.0)
_NON_FINITE = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}


def _with(values, slot, value):
    values = list(values)
    values[slot] = value
    return values


def _pose(position=_GOOD_POSITION, quat=_GOOD_QUAT):
    return Pose6D(np.array(position), np.array(quat))


def _measurement(appearance=_GOOD_APPEARANCE):
    return make_measurement(1, appearance=np.array(appearance))


def _refusals():
    """(id, construction, message) for every refusal of the value types, message verbatim."""
    cases = []
    for name, bad in _NON_FINITE.items():
        q_norm = "nan" if name == "nan" else "inf"
        for slot in range(3):
            cases.append((f"position[{slot}]={name}",
                          lambda s=slot, b=bad: _pose(position=_with(_GOOD_POSITION, s, b)),
                          "position components must be finite"))
        for slot in range(4):
            cases.append((f"orientation[{slot}]={name}",
                          lambda s=slot, b=bad: _pose(quat=_with(_GOOD_QUAT, s, b)),
                          f"orientation must be a unit quaternion, |q| = {q_norm}"))
            cases.append((f"appearance[{slot}]={name}",
                          lambda s=slot, b=bad: _measurement(_with(_GOOD_APPEARANCE, s, b)),
                          "appearance components must be finite"))
            box = tuple(_with(_GOOD_BOX, slot, bad))
            cases.append((f"bbox[{slot}]={name}",
                          lambda v=box: BoundingBox2D(*v),
                          f"bounding box values must be finite and >= 0: {box}"))
    cases += [
        ("position_shape_2", lambda: _pose(position=(0.0, 1.0)),
         "position must have shape (3,), got (2,)"),
        ("position_shape_1x3", lambda: _pose(position=[_GOOD_POSITION]),
         "position must have shape (3,), got (1, 3)"),
        ("orientation_shape_3", lambda: _pose(quat=(1.0, 0.0, 0.0)),
         "orientation must have shape (4,), got (3,)"),
        ("appearance_2d", lambda: _measurement([_GOOD_APPEARANCE]), "appearance must be a 1-D vector"),
        ("appearance_empty", lambda: _measurement(()), "appearance must be a 1-D vector"),
        ("non_unit_quaternion", lambda: _pose(quat=(1.0, 1.0, 0.0, 0.0)),
         f"orientation must be a unit quaternion, |q| = {math.sqrt(2.0)!r}"),
        ("zero_quaternion", lambda: _pose(quat=(0.0, 0.0, 0.0, 0.0)),
         "orientation must be a unit quaternion, |q| = 0.0"),
        ("non_unit_appearance", lambda: _measurement((1.0, 1.0, 0.0, 0.0)),
         f"appearance must be unit-norm, |e| = {math.sqrt(2.0)!r}"),
        ("appearance_norm_overflows", lambda: _measurement((1e200, 0.0, 0.0, 0.0)),
         "appearance must be unit-norm, |e| = inf"),
        ("position_checked_before_orientation",
         lambda: _pose(position=(0.0, 0.0, math.nan), quat=(1.0, 1.0, 0.0, 0.0)),
         "position components must be finite"),
        ("negative_bbox", lambda: BoundingBox2D(10.0, -1.0, 50.0, 60.0),
         "bounding box values must be finite and >= 0: (10.0, -1.0, 50.0, 60.0)"),
        ("inverted_bbox", lambda: BoundingBox2D(50.0, 20.0, 10.0, 60.0),
         "bounding box must have positive extent: (50.0, 20.0, 10.0, 60.0)"),
    ]
    return cases


class TestRefusals:
    """Every slot of every checked field is looked at, and each refusal keeps its message."""

    @pytest.mark.parametrize(
        "build,message", [case[1:] for case in _refusals()], ids=[case[0] for case in _refusals()]
    )
    def test_refused_with_its_message(self, build, message):
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError) as err:
            build()
        assert str(err.value) == message

    def test_good_values_accepted(self):
        pose = _pose()
        assert pose.position.tolist() == list(_GOOD_POSITION)
        assert pose.orientation.tolist() == list(_GOOD_QUAT)
        assert _measurement().appearance.tolist() == list(_GOOD_APPEARANCE)
        assert BoundingBox2D(*_GOOD_BOX).x_max == 50.0

    def test_inputs_are_copied_and_frozen(self):
        position, quat = np.array(_GOOD_POSITION), np.array([-0.5, -0.5, -0.5, -0.5])
        pose = Pose6D(position, quat)
        position[0] = 9.0
        quat[0] = 9.0
        assert pose.position[0] == 0.5
        assert pose.orientation.tolist() == [0.5, 0.5, 0.5, 0.5]
        appearance = np.array(_GOOD_APPEARANCE)
        m = _measurement(appearance)
        appearance[0] = 9.0
        assert m.appearance[0] == 0.5
        for arr in (pose.position, pose.orientation, m.appearance):
            assert not arr.flags.writeable


@pytest.mark.parametrize(
    "value, real",
    [
        (1, True), (-2.5, True), (np.int64(3), True), (np.float32(0.5), True),
        ("1", False), (True, False), (np.bool_(True), False), (None, False),
        (math.nan, False), (-math.inf, False), (np.float64(math.inf), False),
        (10**400, False),  # an int too large for a float
    ],
)
def test_is_real_takes_only_finite_python_or_numpy_numbers(value, real):
    assert is_real(value) is real
