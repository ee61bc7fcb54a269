"""The pose-difference kernel equals the scalar pair functions bit for bit.

``pairwise_pose_differences`` measures every ordered pair of a set of poses
at once for pose selection. Each entry must be the float that
``rotation_angle`` and ``translation_distance`` give for the pair, so the
selected pose, and every map byte, are those of a loop over pairs. Sets mix
random orientations with an earlier one negated, repeated, perturbed by
1e-9 to 1e-1, or turned by 180 degrees, where the hemisphere test and the
square roots are most sensitive to rounding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from objassoc.core import (
    Pose6D,
    _row_dots,
    pairwise_pose_differences,
    quat_multiply,
    rotation_angle,
    translation_distance,
    unit_quaternion_angle,
    vector_norm,
)

from conftest import random_unit_quaternion

KINDS = ("random", "negated", "equal", "perturbed", "half_turn")


@st.composite
def pose_sets(draw):
    """(quaternions (n, 4), positions (n, 3)) for 2-12 poses, unit within 1e-9."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    quats = [random_unit_quaternion(rng)]
    for _ in range(n - 1):
        kind = draw(st.sampled_from(KINDS))
        base = quats[draw(st.integers(0, len(quats) - 1))]
        if kind == "random":
            q = random_unit_quaternion(rng)
        elif kind == "negated":
            q = -base
        elif kind == "equal":
            q = base.copy()
        elif kind == "perturbed":
            q = base + 10.0 ** draw(st.floats(-9.0, -1.0)) * rng.normal(size=4)
            q = q / vector_norm(q)
        else:
            axis = rng.normal(size=3)
            q = quat_multiply(base, np.concatenate([[0.0], axis / vector_norm(axis)]))
        quats.append(q)
    scale = 10.0 ** draw(st.floats(-6.0, 3.0))
    positions = scale * rng.normal(size=(n, 3))
    if draw(st.booleans()):
        positions[-1] = positions[0]
    return np.array(quats), positions


@settings(max_examples=300, deadline=None)
@given(pose_sets())
def test_every_pair_is_the_scalar_pair_difference(poses):
    quats, positions = poses
    angle, dist = pairwise_pose_differences(quats, positions)
    n = len(quats)
    assert angle.shape == dist.shape == (n, n)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert angle[i, j] == unit_quaternion_angle(quats[i], quats[j])
                assert dist[i, j] == vector_norm(positions[i] - positions[j])

    # As pose selection calls it: canonical orientations of checked poses.
    built = [Pose6D(p, q) for p, q in zip(positions, quats)]
    angle, dist = pairwise_pose_differences(
        np.array([p.orientation for p in built]), np.array([p.position for p in built])
    )
    for i, a in enumerate(built):
        for j, b in enumerate(built):
            if i != j:
                assert angle[i, j] == rotation_angle(a, b)
                assert dist[i, j] == translation_distance(a, b)


@settings(max_examples=200, deadline=None)
@given(pose_sets())
def test_the_matrices_are_symmetric_with_a_zero_diagonal(poses):
    angle, dist = pairwise_pose_differences(*poses)
    assert np.array_equal(angle, angle.T) and np.array_equal(dist, dist.T)
    assert angle.diagonal().tolist() == [0.0] * len(angle)
    assert dist.diagonal().tolist() == [0.0] * len(dist)
    assert (angle >= 0.0).all() and (angle <= 180.0).all()


_rows = st.integers(1, 40)
_elements = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 4, 16]).flatmap(
    lambda length: _rows.flatmap(
        lambda rows: st.tuples(
            arrays(float, (rows, length), elements=_elements),
            arrays(float, (rows, length), elements=_elements),
        )
    )
))
def test_row_dots_are_the_dots_of_x_dot_y(pair):
    # Summing elementwise products (sum, einsum) rounds differently from ddot.
    x, y = pair
    assert _row_dots(x, y).tolist() == [a.dot(b) for a, b in zip(x, y)]
