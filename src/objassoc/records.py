"""Line-delimited record serialization for datasets, maps, and reports.

Files carry one JSON object per line, each an envelope
``{"kind": ..., "version": 1, "payload": ...}``. Keys are emitted in a fixed
documented order and floating-point numbers with 17 significant digits, so
identical inputs always serialize to byte-identical files. Quaternions are
canonicalized (first nonzero component positive) before writing.

Dataset files hold one ``config`` record, then ``gt_landmark`` records, then
``keyframe`` records. Map files hold one ``config`` record (the run
manifest), then ``landmark`` records, then ``assignment`` records. Report
files hold a single ``report`` record. All use the ``.assoc.jsonl``
extension.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .core import BoundingBox2D, Keyframe, ObjectMeasurement, Pose6D
from .errors import DataFormatError
from .metrics import EvalReport, LandmarkRow
from .synth import (
    Dataset,
    GroundTruthLandmark,
    scenario_from_payload,
    scenario_to_payload,
)

SCHEMA_VERSION = 1
RECORD_KINDS = ("keyframe", "gt_landmark", "config", "landmark", "assignment", "report")
FILE_EXTENSION = ".assoc.jsonl"


# ---------------------------------------------------------------------------
# deterministic encoder


def _encode(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise DataFormatError(f"cannot serialize non-finite number {value!r}")
        if value == 0.0:
            value = 0.0  # normalize -0.0: "-0" would reparse as int 0
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_encode(v) for v in value) + "]"
    if isinstance(value, dict):
        items = ",".join(f"{json.dumps(str(k))}:{_encode(v)}" for k, v in value.items())
        return "{" + items + "}"
    raise DataFormatError(f"cannot serialize value of type {type(value).__name__}")


def encode_record(kind: str, payload) -> str:
    if kind not in RECORD_KINDS:
        raise DataFormatError(f"unknown record kind {kind!r}")
    return _encode({"kind": kind, "version": SCHEMA_VERSION, "payload": payload})


def _parse_line(line: str, line_no: int) -> tuple[str, dict]:
    try:
        envelope = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"malformed record: {exc.msg}", line_no) from exc
    if not isinstance(envelope, dict):
        raise DataFormatError("record is not an object", line_no)
    kind = envelope.get("kind")
    if kind not in RECORD_KINDS:
        raise DataFormatError(f"unknown record kind {kind!r}", line_no)
    if envelope.get("version") != SCHEMA_VERSION:
        raise DataFormatError(
            f"unsupported schema version {envelope.get('version')!r}", line_no
        )
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise DataFormatError("record payload must be an object", line_no)
    return kind, payload


def _read_records(path) -> Iterator[tuple[int, str, dict]]:
    """Line number, kind and payload of each nonblank line of a record file."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield (line_no, *_parse_line(line, line_no))


@contextmanager
def _record_fields(kind: str, line_no: int):
    """Report a missing or malformed field of a record as a DataFormatError.

    A DataFormatError raised inside passes unchanged; a missing key, a value
    of the wrong type or an invalid value gets the record's line number.
    """
    try:
        yield
    except DataFormatError:
        raise
    except KeyError as exc:
        raise DataFormatError(f"{kind} missing field {exc}", line_no) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"invalid {kind}: {exc}", line_no) from exc


# ---------------------------------------------------------------------------
# payload conversion


def _pose_payload(pose: Pose6D) -> dict:
    return {
        "position": list(pose.position),
        "quaternion": list(pose.orientation),
    }


def _pose_from_payload(payload: dict) -> Pose6D:
    return Pose6D(np.asarray(payload["position"]), np.asarray(payload["quaternion"]))


def _measurement_payload(m: ObjectMeasurement) -> dict:
    return {
        "measurement_id": m.measurement_id,
        "object_track_hint": m.object_track_hint,
        "keyframe_id": m.keyframe_id,
        "class_label": m.class_label,
        "bbox": [m.bbox.x_min, m.bbox.y_min, m.bbox.x_max, m.bbox.y_max],
        "pose": _pose_payload(m.pose),
        "appearance": list(m.appearance),
        "gt_landmark_id": m.gt_landmark_id,
    }


def _id(value, name: str, optional: bool = False) -> Optional[int]:
    """A JSON integer id, or None when optional and null; ``true`` or 1.5 is refused, not cast."""
    if type(value) is not int and not (optional and value is None):  # bool is an int subclass
        raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


def _measurement_from_payload(payload: dict) -> ObjectMeasurement:
    return ObjectMeasurement(
        measurement_id=_id(payload["measurement_id"], "measurement_id"),
        keyframe_id=_id(payload["keyframe_id"], "keyframe_id"),
        class_label=payload["class_label"],
        bbox=BoundingBox2D(*payload["bbox"]),
        pose=_pose_from_payload(payload["pose"]),
        appearance=np.asarray(payload["appearance"], dtype=float),
        object_track_hint=_id(payload.get("object_track_hint"), "object_track_hint", optional=True),
        gt_landmark_id=_id(payload.get("gt_landmark_id"), "gt_landmark_id", optional=True),
    )


def _keyframe_payload(kf: Keyframe) -> dict:
    return {
        "keyframe_id": kf.keyframe_id,
        "timestamp": kf.timestamp,
        "camera_pose": _pose_payload(kf.camera_pose),
        "measurements": [_measurement_payload(m) for m in kf.measurements],
    }


# ---------------------------------------------------------------------------
# dataset files


def write_dataset(dataset: Dataset, path) -> None:
    lines = []
    config_payload = (
        {"scenario": scenario_to_payload(dataset.config)} if dataset.config else {"scenario": None}
    )
    lines.append(encode_record("config", config_payload))
    for gt in dataset.gt_landmarks:
        lines.append(
            encode_record(
                "gt_landmark",
                {
                    "gt_landmark_id": gt.gt_landmark_id,
                    "class_label": gt.class_label,
                    "pose": _pose_payload(gt.pose),
                },
            )
        )
    for kf in dataset.keyframes:
        lines.append(encode_record("keyframe", _keyframe_payload(kf)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dataset(path) -> Dataset:
    """Parse and validate a dataset file; errors carry the offending line number."""
    config = None
    gt_landmarks: list[GroundTruthLandmark] = []
    keyframes: list[Keyframe] = []
    seen_measurements: set[int] = set()
    for line_no, kind, payload in _read_records(path):
        with _record_fields(kind, line_no):
            if kind == "config":
                scenario = payload.get("scenario")
                if scenario is not None:
                    config = scenario_from_payload(scenario)
            elif kind == "gt_landmark":
                gt_landmarks.append(
                    GroundTruthLandmark(
                        gt_landmark_id=_id(payload["gt_landmark_id"], "gt_landmark_id"),
                        class_label=payload["class_label"],
                        pose=_pose_from_payload(payload["pose"]),
                    )
                )
            elif kind == "keyframe":
                kf = Keyframe(
                    keyframe_id=_id(payload["keyframe_id"], "keyframe_id"),
                    timestamp=float(payload["timestamp"]),
                    camera_pose=_pose_from_payload(payload["camera_pose"]),
                    measurements=tuple(map(_measurement_from_payload, payload["measurements"])),
                )
                if keyframes and kf.keyframe_id <= keyframes[-1].keyframe_id:
                    raise DataFormatError(
                        f"keyframe ids not strictly increasing at {kf.keyframe_id}", line_no
                    )
                known_gt = {gt.gt_landmark_id for gt in gt_landmarks}
                for m in kf.measurements:
                    if m.measurement_id in seen_measurements:
                        raise DataFormatError(
                            f"duplicate measurement_id {m.measurement_id}", line_no
                        )
                    seen_measurements.add(m.measurement_id)
                    if m.gt_landmark_id is not None and m.gt_landmark_id not in known_gt:
                        raise DataFormatError(
                            f"measurement {m.measurement_id} references unknown "
                            f"gt_landmark_id {m.gt_landmark_id}",
                            line_no,
                        )
                keyframes.append(kf)
            else:
                raise DataFormatError(f"record kind {kind!r} not allowed in a dataset", line_no)
    return Dataset(keyframes=tuple(keyframes), gt_landmarks=tuple(gt_landmarks), config=config)


# ---------------------------------------------------------------------------
# map files (landmarks + assignments + run manifest)


@dataclass(frozen=True)
class LandmarkRecord:
    """Landmark as stored on disk; enough surface for evaluation."""

    landmark_id: int
    class_label: str
    refined_pose: Optional[Pose6D]
    tracks: tuple[tuple[int, int], ...]
    measurement_ids: tuple[int, ...]


def write_map(landmarks, assignments: dict[int, int], manifest: dict, path) -> None:
    lines = [encode_record("config", {"run": manifest})]
    for lm in landmarks:
        lines.append(
            encode_record(
                "landmark",
                {
                    "landmark_id": lm.landmark_id,
                    "class_label": lm.class_label,
                    "refined_pose": _pose_payload(lm.refined_pose) if lm.refined_pose else None,
                    "tracks": [list(t) for t in sorted(lm.associated_tracks)],
                    "measurement_ids": sorted(lm.measurement_ids),
                },
            )
        )
    for mid in sorted(assignments):
        lines.append(
            encode_record("assignment", {"measurement_id": mid, "landmark_id": assignments[mid]})
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_map(path) -> tuple[dict, list[LandmarkRecord], dict[int, int]]:
    manifest: dict = {}
    landmarks: list[LandmarkRecord] = []
    assignments: dict[int, int] = {}
    for line_no, kind, payload in _read_records(path):
        with _record_fields(kind, line_no):
            if kind == "config":
                manifest = payload.get("run", {})
                if not isinstance(manifest, dict):
                    raise DataFormatError("run manifest must be an object", line_no)
            elif kind == "landmark":
                pose_payload = payload.get("refined_pose")
                landmarks.append(
                    LandmarkRecord(
                        landmark_id=_id(payload["landmark_id"], "landmark_id"),
                        class_label=payload["class_label"],
                        refined_pose=_pose_from_payload(pose_payload) if pose_payload else None,
                        tracks=tuple(
                            (_id(group, "track group"), _id(index, "track index"))
                            for group, index in payload["tracks"]
                        ),
                        measurement_ids=tuple(
                            _id(mid, "measurement_id") for mid in payload["measurement_ids"]
                        ),
                    )
                )
            elif kind == "assignment":
                mid = _id(payload["measurement_id"], "measurement_id")
                assignments[mid] = _id(payload["landmark_id"], "landmark_id")
            else:
                raise DataFormatError(f"record kind {kind!r} not allowed in a map", line_no)
    return manifest, landmarks, assignments


# ---------------------------------------------------------------------------
# report files


def report_payload(report: EvalReport) -> dict:
    return {
        "association_accuracy": report.association_accuracy,
        "predicted_count": report.predicted_count,
        "gt_count": report.gt_count,
        "count_error": report.count_error,
        "landmark_pose_rmse_pos": report.landmark_pose_rmse_pos,
        "landmark_pose_rmse_rot": report.landmark_pose_rmse_rot,
        "per_landmark": [
            {
                "landmark_id": row.landmark_id,
                "gt_landmark_id": row.gt_landmark_id,
                "shared": row.shared,
                "predicted_size": row.predicted_size,
                "gt_size": row.gt_size,
                "pos_error_m": row.pos_error_m,
                "rot_error_deg": row.rot_error_deg,
            }
            for row in report.per_landmark
        ],
        "echo": report.echo,
    }


def write_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(encode_record("report", report_payload(report)) + "\n")


def read_report(path) -> EvalReport:
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline().strip()
    kind, payload = _parse_line(line, 1)
    if kind != "report":
        raise DataFormatError(f"expected a report record, got {kind!r}", 1)
    with _record_fields(kind, 1):
        rows = tuple(
            LandmarkRow(
                landmark_id=r["landmark_id"],
                gt_landmark_id=r.get("gt_landmark_id"),
                shared=r["shared"],
                predicted_size=r["predicted_size"],
                gt_size=r["gt_size"],
                pos_error_m=r.get("pos_error_m"),
                rot_error_deg=r.get("rot_error_deg"),
            )
            for r in payload.get("per_landmark", [])
        )
        return EvalReport(
            association_accuracy=payload["association_accuracy"],
            predicted_count=payload["predicted_count"],
            gt_count=payload["gt_count"],
            count_error=payload["count_error"],
            landmark_pose_rmse_pos=payload.get("landmark_pose_rmse_pos"),
            landmark_pose_rmse_rot=payload.get("landmark_pose_rmse_rot"),
            per_landmark=rows,
            echo=payload.get("echo", {}),
        )
