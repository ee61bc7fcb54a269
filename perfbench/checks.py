"""Output checks run on every pipeline run of the benchmark.

A run that fails any check is counted as failed; the workload goes on.
The checks read the written map back, so they also cover the file format.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from objassoc import records


def _assignment_rows(map_path) -> list[int]:
    """Measurement ids of the map file's assignment records, duplicates kept."""
    rows = []
    with open(map_path, "r", encoding="utf-8") as fh:
        for line in fh:
            envelope = json.loads(line)
            if envelope["kind"] == "assignment":
                rows.append(int(envelope["payload"]["measurement_id"]))
    return rows


def _same_pose(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return np.array_equal(a.position, b.position) and np.array_equal(a.orientation, b.orientation)


def check_outputs(dataset, result, map_path) -> list[str]:
    """Problems found in one run's result and map file; empty when all checks pass.

    - the map file round-trips through ``records.read_map``;
    - every measurement is assigned exactly once, to a landmark that holds it;
    - no landmark holds two detections from one keyframe;
    - no landmark holds two tracks of one group.
    """
    problems: list[str] = []
    _, landmarks, assignments = records.read_map(map_path)

    if assignments != dict(result.assignments):
        problems.append("map assignments differ from the run's assignment table")
    written = {lm.landmark_id: lm for lm in landmarks}
    if sorted(written) != sorted(lm.landmark_id for lm in result.landmarks):
        problems.append("map landmark ids differ from the run's landmarks")
    for lm in result.landmarks:
        back = written.get(lm.landmark_id)
        if back is None:
            continue
        if (
            back.class_label != lm.class_label
            or list(back.tracks) != [tuple(t) for t in sorted(lm.associated_tracks)]
            or list(back.measurement_ids) != sorted(lm.measurement_ids)
            or not _same_pose(back.refined_pose, lm.refined_pose)
        ):
            problems.append(f"landmark {lm.landmark_id} does not round-trip through the map file")

    keyframe_of = {m.measurement_id: kf.keyframe_id for kf in dataset.keyframes for m in kf.measurements}
    rows = Counter(_assignment_rows(map_path))
    missing = sorted(set(keyframe_of) - set(rows))
    extra = sorted(set(rows) - set(keyframe_of))
    repeated = sorted(mid for mid, n in rows.items() if n > 1)
    if missing:
        problems.append(f"{len(missing)} measurements unassigned, first {missing[0]}")
    if extra:
        problems.append(f"{len(extra)} assignments to unknown measurements, first {extra[0]}")
    if repeated:
        problems.append(f"{len(repeated)} measurements assigned more than once, first {repeated[0]}")
    for mid, landmark_id in assignments.items():
        holder = written.get(landmark_id)
        if holder is None or mid not in holder.measurement_ids:
            problems.append(f"measurement {mid} assigned to landmark {landmark_id}, which does not hold it")
            break

    for lm in landmarks:
        keyframes = Counter(keyframe_of.get(mid) for mid in lm.measurement_ids)
        doubled = sorted(k for k, n in keyframes.items() if k is not None and n > 1)
        if doubled:
            problems.append(f"landmark {lm.landmark_id} holds two detections of keyframe {doubled[0]}")
        groups = Counter(group for group, _ in lm.tracks)
        shared = sorted(g for g, n in groups.items() if n > 1)
        if shared:
            problems.append(f"landmark {lm.landmark_id} holds two tracks of group {shared[0]}")
    return problems
