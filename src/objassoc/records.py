"""Line-delimited record serialization for datasets, maps, and reports.

Files carry one JSON object per line, each an envelope
``{"kind": ..., "version": 1, "payload": ...}`` with keys in a fixed documented
order, so identical inputs always serialize to byte-identical files. Python's
``json`` encoder writes each float as its shortest round-trip ``repr``: it reads
back bit for bit, and ``-0.0`` and ``1.0`` stay floats. Older files, which hold
17 significant digits, an integral float as an integer and ``-0.0`` as ``0``,
still read. Quaternions are canonicalized (first nonzero component positive).

Dataset files hold one ``config`` record, then ``gt_landmark`` records, then
``keyframe`` records. Map files hold one ``config`` record (the run
manifest), then ``landmark`` records, then ``assignment`` records. A ``config``
record must be line 1, which the CLI hashes as a map's manifest. Report
files hold a single ``report`` record. All use the ``.assoc.jsonl``
extension. A dataset's scenario and a report are written as their dataclass
fields in declaration order. This is the one module that knows the format;
its readers refuse a JSON value of the wrong type (``true`` for a number, a
number for a class label) with the record's line number instead of casting it.
A scenario's values go to its classes as read, and ``LandmarkSpec``,
``CameraPath`` and ``ScenarioConfig`` judge their types, as they do for
Python callers.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Optional

import numpy as np

from .core import BoundingBox2D, Keyframe, ObjectMeasurement, Pose6D
from .errors import DataFormatError
from .metrics import EvalReport, LandmarkRow
from .synth import CameraPath, Dataset, GroundTruthLandmark, LandmarkSpec, ScenarioConfig

SCHEMA_VERSION = 1
RECORD_KINDS = ("keyframe", "gt_landmark", "config", "landmark", "assignment", "report")


# ---------------------------------------------------------------------------
# encoder


def _plain(value):
    """A NumPy scalar or array as Python values; any other unknown type is refused."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


# Every payload is built fresh by its writer, so none can hold itself: no circular check.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False,
                            default=_plain)


def encode_record(kind: str, payload) -> str:
    """One record's line; NaN, infinity and a value of an unknown type are refused."""
    if kind not in RECORD_KINDS:
        raise DataFormatError(f"unknown record kind {kind!r}")
    try:
        return _ENCODER.encode({"kind": kind, "version": SCHEMA_VERSION, "payload": payload})
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"cannot serialize {kind} record: {exc}") from exc


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# Python's json reads NaN, Infinity and -Infinity, which the encoder never writes.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _parse_line(line: str, line_no: int) -> tuple[str, dict]:
    try:
        envelope = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"malformed record: {exc.msg}", line_no) from exc
    except ValueError as exc:  # a constant refused by _refuse_constant
        raise DataFormatError(f"malformed record: {exc}", line_no) from exc
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
    """Line number, kind and payload of each nonblank line; a config off line 1 is refused."""
    config_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                kind, payload = _parse_line(line, line_no)
                if kind == "config" and line_no != 1:
                    message = "duplicate config record" if config_seen else "config must be line 1"
                    raise DataFormatError(message, line_no)
                config_seen = config_seen or kind == "config"
                yield line_no, kind, payload


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
# typed field accessors

_NUMBER_TYPES = frozenset((int, float))


def _id(value, name: str, optional: bool = False) -> Optional[int]:
    """A JSON integer id, or None when optional and null; ``true`` or 1.5 is refused, not cast."""
    if type(value) is not int and not (optional and value is None):  # bool is an int subclass
        raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


def _number(value, name: str, optional: bool = False):
    """A JSON number, or None when optional and null; ``true`` or ``"1"`` is refused, not cast."""
    # type(True) is bool, so true is refused
    if type(value) not in _NUMBER_TYPES and not (optional and value is None):
        raise ValueError(f"{name} must be a number, got {json.dumps(value)}")
    return value


def _numbers(values, name: str) -> list:
    """A JSON array of numbers."""
    if type(values) is not list or not _NUMBER_TYPES.issuperset(map(type, values)):
        raise ValueError(f"{name} must be an array of numbers, got {json.dumps(values)}")
    return values


def _label(value, name: str) -> str:
    """A JSON string; a number is no class label."""
    if type(value) is not str:
        raise ValueError(f"{name} must be a string, got {json.dumps(value)}")
    return value


# ---------------------------------------------------------------------------
# payload conversion


def _pose_payload(pose: Pose6D) -> dict:
    return {"position": pose.position.tolist(), "quaternion": pose.orientation.tolist()}


def _measurement_payload(m: ObjectMeasurement) -> dict:
    b = m.bbox
    return {
        "measurement_id": m.measurement_id,
        "keyframe_id": m.keyframe_id,
        "class_label": m.class_label,
        "bbox": [b.x_min, b.y_min, b.x_max, b.y_max],
        "pose": _pose_payload(m.pose),
        "appearance": m.appearance.tolist(),
        "gt_landmark_id": m.gt_landmark_id,
    }


def _pose_from_payload(payload: dict) -> Pose6D:
    if type(payload) is not dict:
        raise ValueError(f"a pose must be an object, got {json.dumps(payload)}")
    return Pose6D(
        _numbers(payload["position"], "position"),
        _numbers(payload["quaternion"], "quaternion"),
    )


def _measurement_from_payload(payload: dict) -> ObjectMeasurement:
    return ObjectMeasurement(
        measurement_id=_id(payload["measurement_id"], "measurement_id"),
        keyframe_id=_id(payload["keyframe_id"], "keyframe_id"),
        class_label=_label(payload["class_label"], "class_label"),
        bbox=BoundingBox2D(*_numbers(payload["bbox"], "bbox")),
        pose=_pose_from_payload(payload["pose"]),
        appearance=_numbers(payload["appearance"], "appearance"),
        gt_landmark_id=_id(payload.get("gt_landmark_id"), "gt_landmark_id", optional=True),
    )


# every ScenarioConfig field name but the two structured ones, in declaration order
_SCENARIO_SCALARS = [
    f.name for f in fields(ScenarioConfig) if f.name not in ("landmarks", "camera")
]


def _scenario_from_payload(payload: dict) -> ScenarioConfig:
    """The payload's values as they are read; the scenario classes judge their types."""
    camera = payload["camera"]
    return ScenarioConfig(
        landmarks=tuple(
            LandmarkSpec(
                class_label=s["class_label"],
                position=tuple(s["position"]),
                orientation=tuple(s["orientation"]),
                similarity_group=s["similarity_group"],
            )
            for s in payload["landmarks"]
        ),
        camera=CameraPath(
            waypoints=tuple(map(tuple, camera["waypoints"])),
            speed_factor=camera["speed_factor"],
        ),
        **{name: payload[name] for name in _SCENARIO_SCALARS},
    )


# ---------------------------------------------------------------------------
# dataset files


def write_dataset(dataset: Dataset, path) -> None:
    scenario = asdict(dataset.config) if dataset.config else None
    lines = [encode_record("config", {"scenario": scenario})]
    lines.extend(
        encode_record("gt_landmark", {"gt_landmark_id": gt.gt_landmark_id,
                                      "class_label": gt.class_label,
                                      "pose": _pose_payload(gt.pose)})
        for gt in dataset.gt_landmarks
    )
    lines.extend(
        encode_record("keyframe", {
            "keyframe_id": kf.keyframe_id,
            "timestamp": kf.timestamp,
            "camera_pose": _pose_payload(kf.camera_pose),
            "measurements": list(map(_measurement_payload, kf.measurements)),
        })
        for kf in dataset.keyframes
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dataset(path) -> Dataset:
    """Parse and validate a dataset file; errors carry the offending line number."""
    config = None
    gt_landmarks: list[GroundTruthLandmark] = []
    keyframes: list[Keyframe] = []
    known_gt: set[int] = set()
    seen_measurements: set[int] = set()
    for line_no, kind, payload in _read_records(path):
        with _record_fields(kind, line_no):
            if kind == "config":
                scenario = payload.get("scenario")
                if scenario is not None:
                    config = _scenario_from_payload(scenario)
            elif kind == "gt_landmark":
                gt = GroundTruthLandmark(
                    gt_landmark_id=_id(payload["gt_landmark_id"], "gt_landmark_id"),
                    class_label=_label(payload["class_label"], "class_label"),
                    pose=_pose_from_payload(payload["pose"]),
                )
                if gt.gt_landmark_id in known_gt:
                    raise DataFormatError(f"duplicate gt_landmark_id {gt.gt_landmark_id}", line_no)
                gt_landmarks.append(gt)
                known_gt.add(gt.gt_landmark_id)
            elif kind == "keyframe":
                kf = Keyframe(
                    keyframe_id=_id(payload["keyframe_id"], "keyframe_id"),
                    timestamp=_number(payload["timestamp"], "timestamp"),
                    camera_pose=_pose_from_payload(payload["camera_pose"]),
                    measurements=tuple(map(_measurement_from_payload, payload["measurements"])),
                )
                if keyframes and kf.keyframe_id <= keyframes[-1].keyframe_id:
                    raise DataFormatError(
                        f"keyframe ids not strictly increasing at {kf.keyframe_id}", line_no
                    )
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
    """Write the manifest, the landmarks (tracks and ids sorted) and the assignments by id."""
    lines = [encode_record("config", {"run": manifest})]
    lines.extend(
        encode_record("landmark", {
            "landmark_id": lm.landmark_id,
            "class_label": lm.class_label,
            "refined_pose": None if lm.refined_pose is None else _pose_payload(lm.refined_pose),
            "tracks": sorted(lm.associated_tracks),
            "measurement_ids": sorted(lm.measurement_ids),
        })
        for lm in landmarks
    )
    lines.extend(
        encode_record("assignment", {"measurement_id": mid, "landmark_id": assignments[mid]})
        for mid in sorted(assignments)
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_map(path) -> tuple[dict, list[LandmarkRecord], dict[int, int]]:
    manifest: dict = {}
    landmarks: list[LandmarkRecord] = []
    listed: dict[int, frozenset[int]] = {}  # landmark_id -> measurement ids its record lists
    assignments: dict[int, int] = {}
    for line_no, kind, payload in _read_records(path):
        with _record_fields(kind, line_no):
            if kind == "config":
                manifest = payload.get("run", {})
                if not isinstance(manifest, dict):
                    raise DataFormatError("run manifest must be an object", line_no)
            elif kind == "landmark":
                landmark_id = _id(payload["landmark_id"], "landmark_id")
                if landmark_id in listed:
                    raise DataFormatError(f"duplicate landmark_id {landmark_id}", line_no)
                pose = payload["refined_pose"]  # null is no pose; "" or 0 is refused
                landmarks.append(
                    LandmarkRecord(
                        landmark_id=landmark_id,
                        class_label=_label(payload["class_label"], "class_label"),
                        refined_pose=None if pose is None else _pose_from_payload(pose),
                        tracks=tuple(
                            (_id(group, "track group"), _id(index, "track index"))
                            for group, index in payload["tracks"]
                        ),
                        measurement_ids=tuple(
                            _id(mid, "measurement_id") for mid in payload["measurement_ids"]
                        ),
                    )
                )
                listed[landmark_id] = frozenset(landmarks[-1].measurement_ids)
            elif kind == "assignment":
                mid = _id(payload["measurement_id"], "measurement_id")
                if mid in assignments:
                    raise DataFormatError(f"duplicate assignment of measurement {mid}", line_no)
                landmark_id = _id(payload["landmark_id"], "landmark_id")
                if landmark_id not in listed:
                    raise DataFormatError(f"unknown landmark_id {landmark_id}", line_no)
                if mid not in listed[landmark_id]:
                    raise DataFormatError(
                        f"landmark {landmark_id} does not list measurement {mid}", line_no
                    )
                assignments[mid] = landmark_id
            else:
                raise DataFormatError(f"record kind {kind!r} not allowed in a map", line_no)
    return manifest, landmarks, assignments


# ---------------------------------------------------------------------------
# report files


def write_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(encode_record("report", asdict(report)) + "\n")


def read_report(path) -> EvalReport:
    """Parse and validate a report file: one ``report`` record, nothing after it."""
    with open(path, "r", encoding="utf-8") as fh:
        kind, payload = _parse_line(fh.readline().strip(), 1)
        if kind != "report":
            raise DataFormatError(f"expected a report record, got {kind!r}", 1)
        for line_no, line in enumerate(fh, start=2):
            if line.strip():
                raise DataFormatError("a report file holds a single record", line_no)
    with _record_fields(kind, 1):
        if type(payload["echo"]) is not dict:
            raise ValueError(f"echo must be an object, got {json.dumps(payload['echo'])}")
        # Unknown keys stay in, so the dataclass refuses them.
        return EvalReport(**dict(
            payload,
            association_accuracy=_number(payload["association_accuracy"], "association_accuracy"),
            predicted_count=_id(payload["predicted_count"], "predicted_count"),
            gt_count=_id(payload["gt_count"], "gt_count"),
            count_error=_id(payload["count_error"], "count_error"),
            landmark_pose_rmse_pos=_number(
                payload["landmark_pose_rmse_pos"], "landmark_pose_rmse_pos", optional=True
            ),
            landmark_pose_rmse_rot=_number(
                payload["landmark_pose_rmse_rot"], "landmark_pose_rmse_rot", optional=True
            ),
            per_landmark=tuple(map(_row_from_payload, payload["per_landmark"])),
        ))


def _row_from_payload(row: dict) -> LandmarkRow:
    return LandmarkRow(**dict(
        row,
        landmark_id=_id(row["landmark_id"], "landmark_id"),
        gt_landmark_id=_id(row["gt_landmark_id"], "gt_landmark_id", optional=True),
        shared=_id(row["shared"], "shared"),
        predicted_size=_id(row["predicted_size"], "predicted_size"),
        gt_size=_id(row["gt_size"], "gt_size"),
        pos_error_m=_number(row["pos_error_m"], "pos_error_m", optional=True),
        rot_error_deg=_number(row["rot_error_deg"], "rot_error_deg", optional=True),
    ))
