"""Scoring an association result against ground truth.

Association accuracy is measurement-level: predicted landmarks are matched
one-to-one to ground-truth landmarks by maximizing the total number of
shared measurements (an assignment problem on the contingency table, solved
by ``assignment.linear_assignment``), and a measurement counts as correct
when its predicted landmark is matched to its ground-truth landmark. The same
definition is applied to every method under comparison. Measurements shared
through group overlap are counted once, via the per-measurement assignment
table.

:func:`evaluate` builds that contingency table once and solves the matching
once; the accuracy, each landmark row's shared count and sizes, and the pose
errors are all read off that one table and matching.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .assignment import linear_assignment
from .core import rotation_angle, translation_distance
from .synth import Dataset, GroundTruthLandmark


def gt_labels_of(dataset: Dataset) -> dict[int, int]:
    """measurement_id -> gt_landmark_id for every labeled measurement."""
    labels: dict[int, int] = {}
    for kf in dataset.keyframes:
        for m in kf.measurements:
            if m.gt_landmark_id is not None:
                labels[m.measurement_id] = m.gt_landmark_id
    return labels


def contingency_table(
    assignments: Mapping[int, int], gt_labels: Mapping[int, int]
) -> tuple[np.ndarray, list[int], list[int]]:
    """Shared-measurement counts between predicted and gt landmarks."""
    pred_ids = sorted(set(assignments.values()))
    gt_ids = sorted(set(gt_labels.values()))
    pred_index = {p: i for i, p in enumerate(pred_ids)}
    gt_index = {g: i for i, g in enumerate(gt_ids)}
    cells = Counter((pred, gt_labels[mid]) for mid, pred in assignments.items() if mid in gt_labels)
    table = np.zeros((len(pred_ids), len(gt_ids)), dtype=int)
    for (pred, gt), count in cells.items():
        table[pred_index[pred], gt_index[gt]] = count
    return table, pred_ids, gt_ids


def _matched_cells(table: np.ndarray) -> list[tuple[int, int]]:
    """(row, column) pairs of the optimal matching that share a measurement."""
    counts = table.tolist()
    rows, cols = linear_assignment(counts, maximize=True)
    return [(r, c) for r, c in zip(rows, cols) if counts[r][c] > 0]


def match_landmarks(
    assignments: Mapping[int, int], gt_labels: Mapping[int, int]
) -> dict[int, int]:
    """Optimal partial bijection predicted -> gt maximizing shared measurements.

    Pairs sharing no measurement are left unmatched.
    """
    table, pred_ids, gt_ids = contingency_table(assignments, gt_labels)
    return {pred_ids[r]: gt_ids[c] for r, c in _matched_cells(table)}


def object_count_report(
    landmarks: Sequence, gt_landmarks: Sequence[GroundTruthLandmark]
) -> tuple[int, int]:
    """(nonempty predicted landmark count, ground-truth landmark count)."""
    predicted = sum(1 for lm in landmarks if len(lm.measurement_ids) > 0)
    return predicted, len(gt_landmarks)


@dataclass(frozen=True)
class LandmarkRow:
    landmark_id: int
    gt_landmark_id: Optional[int]
    shared: int
    predicted_size: int
    gt_size: int
    pos_error_m: Optional[float]
    rot_error_deg: Optional[float]


@dataclass(frozen=True)
class EvalReport:
    association_accuracy: float
    predicted_count: int
    gt_count: int
    count_error: int
    landmark_pose_rmse_pos: Optional[float]
    landmark_pose_rmse_rot: Optional[float]
    per_landmark: tuple[LandmarkRow, ...]
    echo: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.association_accuracy <= 100.0:
            raise ValueError("accuracy must lie in [0, 100]")


def evaluate(landmarks, assignments, dataset: Dataset, echo: dict | None = None) -> EvalReport:
    """Full scoring of one association run against the dataset's ground truth.

    Every figure comes from one contingency table and one matching: the
    accuracy is the matched entries' sum over the labeled measurement count,
    and a row's ``shared`` is its matched entry. The pose RMSE is taken over
    the rows, in landmark order, whose landmark is matched and carries a
    refined pose.
    """
    gt_labels = gt_labels_of(dataset)
    table, pred_ids, gt_ids = contingency_table(assignments, gt_labels)
    matched = {
        pred_ids[r]: (gt_ids[c], int(table[r, c])) for r, c in _matched_cells(table)
    }
    correct = sum(shared for _, shared in matched.values())
    accuracy = 100.0 * correct / len(gt_labels) if gt_labels else 100.0
    predicted_count, gt_count = object_count_report(landmarks, dataset.gt_landmarks)
    gt_by_id = {gt.gt_landmark_id: gt for gt in dataset.gt_landmarks}
    gt_sizes = Counter(gt_labels.values())
    pred_sizes = Counter(assignments.values())

    rows = []
    for lm in landmarks:
        gt_id, shared = matched.get(lm.landmark_id, (None, 0))
        pos_err = rot_err = None
        if gt_id is not None and lm.refined_pose is not None:
            gt_pose = gt_by_id[gt_id].pose
            pos_err = translation_distance(lm.refined_pose, gt_pose)
            rot_err = rotation_angle(lm.refined_pose, gt_pose)
        rows.append(
            LandmarkRow(
                landmark_id=lm.landmark_id,
                gt_landmark_id=gt_id,
                shared=shared,
                predicted_size=pred_sizes[lm.landmark_id],
                gt_size=gt_sizes[gt_id],
                pos_error_m=pos_err,
                rot_error_deg=rot_err,
            )
        )

    errors = [(r.pos_error_m, r.rot_error_deg) for r in rows if r.pos_error_m is not None]
    rmse_pos = rmse_rot = None
    if errors:
        rmse_pos = math.sqrt(sum(p**2 for p, _ in errors) / len(errors))
        rmse_rot = math.sqrt(sum(a**2 for _, a in errors) / len(errors))
    return EvalReport(
        association_accuracy=accuracy,
        predicted_count=predicted_count,
        gt_count=gt_count,
        count_error=predicted_count - gt_count,
        landmark_pose_rmse_pos=rmse_pos,
        landmark_pose_rmse_rot=rmse_rot,
        per_landmark=tuple(rows),
        echo=dict(echo or {}),
    )
