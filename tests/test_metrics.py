import math
from itertools import permutations

import numpy as np
import pytest

from objassoc.association import GlobalLandmark
from objassoc.metrics import (
    contingency_table,
    evaluate,
    gt_labels_of,
    match_landmarks,
    object_count_report,
)
from objassoc.refine import refine_pose
from objassoc.synth import Dataset, GroundTruthLandmark

from conftest import REFINE, build_noisy_landmark, make_keyframe, make_measurement, make_pose


def brute_force_best_total(assignments, gt_labels) -> int:
    table, pred_ids, gt_ids = contingency_table(assignments, gt_labels)
    rows, cols = table.shape
    if rows == 0 or cols == 0:
        return 0
    if rows <= cols:
        return max(
            sum(table[i, perm[i]] for i in range(rows))
            for perm in permutations(range(cols), rows)
        )
    return max(
        sum(table[perm[j], j] for j in range(cols))
        for perm in permutations(range(rows), cols)
    )


def labeled_dataset(gt_labels, gt_poses=None):
    """One keyframe per labeled measurement; gt landmarks at the given poses (origin by default)."""
    gt_poses = gt_poses or {}
    keyframes = tuple(
        make_keyframe(i, [make_measurement(mid, kf_id=i, gt=gt)])
        for i, (mid, gt) in enumerate(sorted(gt_labels.items()))
    )
    gt_landmarks = tuple(
        GroundTruthLandmark(gt, "door", gt_poses.get(gt, make_pose()))
        for gt in sorted(set(gt_labels.values()))
    )
    return Dataset(keyframes=keyframes, gt_landmarks=gt_landmarks)


def accuracy_of(assignments, gt_labels):
    return evaluate([], assignments, labeled_dataset(gt_labels)).association_accuracy


def pose_rmse_of(landmarks, assignments, gt_labels, gt_poses):
    report = evaluate(landmarks, assignments, labeled_dataset(gt_labels, gt_poses))
    if report.landmark_pose_rmse_pos is None:
        return None
    return report.landmark_pose_rmse_pos, report.landmark_pose_rmse_rot


def landmark_with(landmark_id, measurements, refined=None):
    lm = GlobalLandmark(landmark_id=landmark_id, class_label="door")
    lm.measurements = list(measurements)
    lm.measurement_ids = frozenset(m.measurement_id for m in measurements)
    lm.refined_pose = refined
    return lm


class TestMatchLandmarks:
    def test_identity_partition(self):
        assignments = {1: 10, 2: 10, 3: 20, 4: 20}
        gt = {1: 100, 2: 100, 3: 200, 4: 200}
        assert match_landmarks(assignments, gt) == {10: 100, 20: 200}

    def test_merged_prediction_matches_larger_overlap(self):
        # One predicted landmark holds all measurements of two gt landmarks.
        assignments = {m: 1 for m in range(1, 8)}
        gt = {m: 100 for m in range(1, 5)}
        gt.update({m: 200 for m in range(5, 8)})
        matching = match_landmarks(assignments, gt)
        assert matching == {1: 100}  # 4 shared beats 3

    def test_matching_total_is_maximal_on_random_partitions(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 31))
            preds = rng.integers(1, 7, size=n)
            gts = rng.integers(1, 7, size=n)
            assignments = {i: int(preds[i]) for i in range(n)}
            gt_labels = {i: int(gts[i]) for i in range(n)}
            matching = match_landmarks(assignments, gt_labels)
            total = sum(
                1
                for mid, pred in assignments.items()
                if matching.get(pred) == gt_labels[mid]
            )
            assert total == brute_force_best_total(assignments, gt_labels)


class TestAssociationAccuracy:
    def test_perfect(self):
        assignments = {1: 5, 2: 5, 3: 9}
        gt = {1: 1, 2: 1, 3: 2}
        assert accuracy_of(assignments, gt) == 100.0

    def test_all_singletons_against_one_object(self):
        assignments = {m: m for m in range(1, 11)}
        gt = {m: 1 for m in range(1, 11)}
        assert accuracy_of(assignments, gt) == pytest.approx(10.0)

    def test_fully_merged_pair_scores_at_most_half(self):
        assignments = {m: 1 for m in range(1, 21)}
        gt = {m: 1 for m in range(1, 11)}
        gt.update({m: 2 for m in range(11, 21)})
        assert accuracy_of(assignments, gt) <= 50.0

    def test_relabeling_invariance(self, rng):
        n = 40
        assignments = {i: int(rng.integers(1, 6)) for i in range(n)}
        gt = {i: int(rng.integers(1, 6)) for i in range(n)}
        base = accuracy_of(assignments, gt)
        relabel = {old: 1000 - old for old in set(assignments.values())}
        shuffled = {mid: relabel[pred] for mid, pred in assignments.items()}
        assert accuracy_of(shuffled, gt) == base

    def test_hundred_iff_partition_matches(self):
        gt = {1: 1, 2: 1, 3: 2, 4: 2}
        assert accuracy_of({1: 7, 2: 7, 3: 8, 4: 8}, gt) == 100.0
        split = {1: 7, 2: 9, 3: 8, 4: 8}
        merged = {1: 7, 2: 7, 3: 7, 4: 8}
        assert accuracy_of(split, gt) < 100.0
        assert accuracy_of(merged, gt) < 100.0


class TestObjectCount:
    def test_empty_map(self):
        gts = [
            GroundTruthLandmark(1, "door", make_pose()),
            GroundTruthLandmark(2, "door", make_pose(1)),
        ]
        assert object_count_report([], gts) == (0, 2)

    def test_counts_nonempty_only(self):
        full = landmark_with(1, [make_measurement(1)])
        empty = landmark_with(2, [])
        assert object_count_report([full, empty], [])[0] == 1


class TestLandmarkPoseError:
    def test_exact_poses_give_zero(self):
        gt = GroundTruthLandmark(1, "door", make_pose(1, 2, 3))
        lm = landmark_with(5, [make_measurement(1, pos=(1, 2, 3))], refined=make_pose(1, 2, 3))
        rmse = pose_rmse_of([lm], {1: 5}, {1: 1}, {1: gt.pose})
        assert rmse == (0.0, 0.0)

    def test_single_offset_pair(self):
        gt = GroundTruthLandmark(1, "door", make_pose(0, 0, 0))
        lm = landmark_with(5, [make_measurement(1)], refined=make_pose(0.3, 0, 0))
        rmse_pos, rmse_rot = pose_rmse_of([lm], {1: 5}, {1: 1}, {1: gt.pose})
        assert rmse_pos == pytest.approx(0.3, abs=1e-12)
        assert rmse_rot == pytest.approx(0.0, abs=1e-9)

    def test_no_matches_reported_absent(self):
        assert pose_rmse_of([], {}, {}, {}) is None

    def test_refined_beats_first_measurement_policy(self, rng):
        params = REFINE
        refined_sq = []
        first_sq = []
        improved = 0
        for _ in range(100):
            true_pose, measurements = build_noisy_landmark(rng, int(rng.integers(5, 11)))
            lm = landmark_with(1, measurements)
            refined = refine_pose(lm, params)
            err_refined = float(np.linalg.norm(refined.position - true_pose.position))
            err_first = float(
                np.linalg.norm(measurements[0].pose.position - true_pose.position)
            )
            refined_sq.append(err_refined**2)
            first_sq.append(err_first**2)
            if err_refined < err_first:
                improved += 1
        rmse_refined = math.sqrt(sum(refined_sq) / 100)
        rmse_first = math.sqrt(sum(first_sq) / 100)
        assert rmse_refined <= rmse_first
        assert improved >= 70


class TestEvaluate:
    def test_full_report_on_tiny_dataset(self):
        measurements = [
            make_measurement(1, kf_id=0, pos=(0, 0, 0), gt=1),
            make_measurement(2, kf_id=0, pos=(5, 0, 0), gt=2),
            make_measurement(3, kf_id=1, pos=(0, 0, 0), gt=1),
        ]
        keyframes = [
            make_keyframe(0, measurements[:2]),
            make_keyframe(1, measurements[2:]),
        ]
        dataset = Dataset(
            keyframes=tuple(keyframes),
            gt_landmarks=(
                GroundTruthLandmark(1, "door", make_pose(0, 0, 0)),
                GroundTruthLandmark(2, "door", make_pose(5, 0, 0)),
            ),
        )
        landmarks = [
            landmark_with(1, [measurements[0], measurements[2]], refined=make_pose(0, 0, 0)),
            landmark_with(2, [measurements[1]], refined=make_pose(5.1, 0, 0)),
        ]
        assignments = {1: 1, 3: 1, 2: 2}
        report = evaluate(landmarks, assignments, dataset, echo={"seed": 11})
        assert report.association_accuracy == 100.0
        assert (report.predicted_count, report.gt_count) == (2, 2)
        assert report.count_error == 0
        assert report.landmark_pose_rmse_pos == pytest.approx(0.1 / math.sqrt(2), abs=1e-9)
        assert report.echo == {"seed": 11}
        assert len(report.per_landmark) == 2
        assert gt_labels_of(dataset) == {1: 1, 2: 2, 3: 1}

    def test_rows_and_accuracy_match_brute_force_counts(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 31))
            preds = rng.integers(1, 7, size=n)
            gts = rng.integers(1, 7, size=n)
            assignments = {i: int(preds[i]) for i in range(n)}
            # every third measurement carries no ground-truth label
            gt_labels = {i: int(gts[i]) for i in range(n) if i % 3}
            landmarks = [landmark_with(p, []) for p in sorted(set(assignments.values()))]
            report = evaluate(landmarks, assignments, labeled_dataset(gt_labels))

            matching = match_landmarks(assignments, gt_labels)
            best = brute_force_best_total(assignments, gt_labels)
            assert report.association_accuracy == (
                100.0 * best / len(gt_labels) if gt_labels else 100.0
            )
            for row in report.per_landmark:
                assert row.gt_landmark_id == matching.get(row.landmark_id)
                assert row.predicted_size == sum(
                    1 for p in assignments.values() if p == row.landmark_id
                )
                assert row.shared == sum(
                    1
                    for mid, p in assignments.items()
                    if p == row.landmark_id
                    and row.gt_landmark_id is not None
                    and gt_labels.get(mid) == row.gt_landmark_id
                )
                assert row.gt_size == sum(
                    1 for g in gt_labels.values() if g == row.gt_landmark_id
                )
