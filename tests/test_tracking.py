import math
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from objassoc.core import appearance_distance, rotation_angle, translation_distance
from objassoc.errors import InvalidConfigurationError
from objassoc.tracking import (
    FORBIDDEN_COST,
    GroupTrack,
    associate_within_group,
    solve_assignment,
    track_cost,
)

from conftest import TRACKER, make_keyframe, make_measurement, quat_about, unit_appearance


def brute_force_min_total(cost: np.ndarray) -> float:
    """Minimum assignment total over all injections of the smaller side."""
    rows, cols = cost.shape
    if rows <= cols:
        return min(
            sum(cost[i, perm[i]] for i in range(rows))
            for perm in permutations(range(cols), rows)
        )
    return min(
        sum(cost[perm[j], j] for j in range(cols))
        for perm in permutations(range(rows), cols)
    )


def single_track(measurement, group_index=1, track_index=0):
    return GroupTrack(
        group_index=group_index,
        track_index=track_index,
        class_label=measurement.class_label,
        measurements=[measurement],
    )


class TestTrackerParams:
    @pytest.mark.parametrize(
        "field, value",
        [("gate_radius", math.nan), ("gate_angle", math.inf), ("w_app", math.nan)],
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidConfigurationError):
            replace(TRACKER, **{field: value})


class TestTrackCost:
    def test_identical_measurement_costs_zero(self):
        m = make_measurement(1)
        assert track_cost(single_track(m), m, TRACKER) == 0.0

    def test_class_mismatch_forbidden(self):
        track = single_track(make_measurement(1, cls="door"))
        assert track_cost(track, make_measurement(2, cls="chair"), TRACKER) is None

    def test_hand_arithmetic(self):
        # appearance distance 0.2, 0.5 m of a 1.0 m gate, 9 deg of a 90 deg gate
        e1 = unit_appearance(dim=4, index=0)
        e2 = np.array([0.8, 0.6, 0.0, 0.0])
        head = make_measurement(1, pos=(0, 0, 0), appearance=e1)
        new = make_measurement(
            2, pos=(0.5, 0, 0), quat=quat_about([0, 0, 1], 9.0), appearance=e2
        )
        params = replace(TRACKER, w_app=0.5, w_pos=0.3, w_rot=0.2)
        assert track_cost(single_track(head), new, params) == pytest.approx(0.27, abs=1e-12)

    def test_cost_above_threshold_forbidden(self):
        head = make_measurement(1, appearance=unit_appearance(index=0))
        far = make_measurement(
            2, pos=(5.0, 0, 0), appearance=unit_appearance(index=1)
        )
        assert track_cost(single_track(head), far, TRACKER) is None

    def test_cost_at_threshold_allowed(self):
        params = replace(TRACKER, w_app=0.0, w_pos=1.0, w_rot=0.0, cost_threshold=0.5)
        head = make_measurement(1)
        boundary = make_measurement(2, pos=(0.5, 0, 0))
        assert track_cost(single_track(head), boundary, params) == pytest.approx(0.5)


class TestAssociateWithinGroup:
    def test_single_keyframe_yields_singletons(self):
        kf = make_keyframe(0, [make_measurement(i, kf_id=0, pos=(i, 0, 0)) for i in (1, 2, 3)])
        tracks = associate_within_group([kf], 1, TRACKER)
        assert len(tracks) == 3
        assert all(len(t.measurements) == 1 for t in tracks)

    def test_two_separated_objects_noise_free(self):
        # Objects 5 m apart, distinct appearance, seen in every keyframe.
        keyframes = []
        mid = 1
        for k in range(4):
            ms = [
                make_measurement(mid, kf_id=k, pos=(0, 0, 0), appearance=unit_appearance(index=0), gt=1),
                make_measurement(mid + 1, kf_id=k, pos=(5, 0, 0), appearance=unit_appearance(index=1), gt=2),
            ]
            mid += 2
            keyframes.append(make_keyframe(k, ms))
        tracks = associate_within_group(keyframes, 1, TRACKER)
        assert len(tracks) == 2
        for t in tracks:
            assert len(t.measurements) == 4
            assert len({m.gt_landmark_id for m in t.measurements}) == 1

    def test_confusable_pair_stays_pure(self):
        # Two objects 0.4 m apart with identical appearance and zero noise:
        # per-keyframe optimal assignment keeps each with its nearer predecessor.
        keyframes = []
        mid = 1
        for k in range(5):
            ms = [
                make_measurement(mid, kf_id=k, pos=(0.0, 0, 0), gt=1),
                make_measurement(mid + 1, kf_id=k, pos=(0.4, 0, 0), gt=2),
            ]
            mid += 2
            keyframes.append(make_keyframe(k, ms))
        params = TRACKER
        tracks = associate_within_group(keyframes, 1, params)
        assert len(tracks) == 2
        for t in tracks:
            assert len({m.gt_landmark_id for m in t.measurements}) == 1

        # Brute force over both pairings in each keyframe: the pure pairing
        # must carry the minimum total cost.
        for k in range(1, 5):
            heads = [keyframes[k - 1].measurements[0], keyframes[k - 1].measurements[1]]
            news = [keyframes[k].measurements[0], keyframes[k].measurements[1]]

            def pair_cost(a, b):
                return (
                    params.w_app * appearance_distance(a.appearance, b.appearance)
                    + params.w_pos
                    * min(translation_distance(a.pose, b.pose) / params.gate_radius, 1.0)
                    + params.w_rot
                    * min(rotation_angle(a.pose, b.pose) / params.gate_angle, 1.0)
                )

            straight = pair_cost(heads[0], news[0]) + pair_cost(heads[1], news[1])
            crossed = pair_cost(heads[0], news[1]) + pair_cost(heads[1], news[0])
            assert straight < crossed

    def test_partition_property(self, rng):
        keyframes = []
        mid = 1
        for k in range(6):
            ms = []
            for _ in range(int(rng.integers(0, 4))):
                ms.append(
                    make_measurement(
                        mid, kf_id=k, pos=tuple(rng.uniform(-3, 3, size=3)),
                        appearance=unit_appearance(index=int(rng.integers(0, 8))),
                    )
                )
                mid += 1
            keyframes.append(make_keyframe(k, ms))
        tracks = associate_within_group(keyframes, 1, TRACKER)
        tracked = sorted(m.measurement_id for t in tracks for m in t.measurements)
        original = sorted(
            m.measurement_id for kf in keyframes for m in kf.measurements
        )
        assert tracked == original
        for t in tracks:
            kf_ids = [m.keyframe_id for m in t.measurements]
            assert len(kf_ids) == len(set(kf_ids))
            assert kf_ids == sorted(kf_ids)

    def test_insertion_order_does_not_matter(self):
        def build(order):
            keyframes = []
            for k in range(3):
                ms = [
                    make_measurement(10 * k + i, kf_id=k, pos=(0.5 * i, 0, 0))
                    for i in order
                ]
                keyframes.append(make_keyframe(k, ms))
            return associate_within_group(keyframes, 1, TRACKER)

        a = build([1, 2, 3])
        b = build([3, 1, 2])
        assert [
            [m.measurement_id for m in t.measurements] for t in a
        ] == [[m.measurement_id for m in t.measurements] for t in b]


class TestAssignmentOptimality:
    def test_random_instances_match_brute_force(self, rng):
        for _ in range(1000):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            cost = rng.uniform(0.0, 1.0, size=(rows, cols))
            forbidden = rng.uniform(size=(rows, cols)) < 0.25
            cost[forbidden] = FORBIDDEN_COST
            pairs = solve_assignment(cost)
            total = sum(cost[r, c] for r, c in pairs) + FORBIDDEN_COST * (
                min(rows, cols) - len(pairs)
            )
            assert total == pytest.approx(brute_force_min_total(cost), abs=1e-9)

    def test_empty_matrix(self):
        assert solve_assignment(np.zeros((0, 3))) == []
