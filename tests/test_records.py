import hashlib
import json
import math
import re
import struct
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from objassoc.association import GlobalLandmark, run_association
from objassoc.config import RunConfig, config_to_mapping
from objassoc.core import BoundingBox2D, Keyframe, ObjectMeasurement, Pose6D
from objassoc.errors import DataFormatError, InvalidInputError
from objassoc.metrics import EvalReport, LandmarkRow
from objassoc.records import (
    encode_record,
    read_dataset,
    read_map,
    read_report,
    write_dataset,
    write_map,
    write_report,
)
from objassoc.synth import Dataset, GroundTruthLandmark, generate, preset

from conftest import make_keyframe, make_measurement, make_pose


def small_dataset():
    measurements = [
        make_measurement(1, kf_id=0, pos=(0.1, 0.2, 0.3), gt=1),
        make_measurement(2, kf_id=2, pos=(1.5, 0, 0), gt=1),
    ]
    return Dataset(
        keyframes=(
            make_keyframe(0, [measurements[0]]),
            make_keyframe(2, [measurements[1]]),
        ),
        gt_landmarks=(GroundTruthLandmark(1, "door", make_pose(0.1, 0.2, 0.3)),),
    )


class TestDatasetRoundTrip:
    def test_round_trip_preserves_bytes(self, tmp_path):
        path1 = tmp_path / "one.assoc.jsonl"
        path2 = tmp_path / "two.assoc.jsonl"
        ds = small_dataset()
        write_dataset(ds, path1)
        write_dataset(read_dataset(path1), path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_write_twice_identical(self, tmp_path):
        ds = generate(replace(preset("office_desk"), seed=2))
        p1, p2 = tmp_path / "a.assoc.jsonl", tmp_path / "b.assoc.jsonl"
        write_dataset(ds, p1)
        write_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_generated_dataset_round_trips(self, tmp_path):
        ds = generate(replace(preset("aisle_quick"), seed=5))
        path = tmp_path / "ds.assoc.jsonl"
        write_dataset(ds, path)
        loaded = read_dataset(path)
        assert loaded.measurement_count == ds.measurement_count
        assert len(loaded.gt_landmarks) == len(ds.gt_landmarks)
        assert loaded.config == ds.config
        second = tmp_path / "ds2.assoc.jsonl"
        write_dataset(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_empty_dataset_is_config_only(self, tmp_path):
        path = tmp_path / "empty.assoc.jsonl"
        write_dataset(Dataset(keyframes=(), gt_landmarks=()), path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert '"kind":"config"' in lines[0]

    def test_floats_are_written_as_their_repr(self, tmp_path):
        # the shortest text that reads back to the same double; -0.0 and 1.0 keep their type
        path = tmp_path / "f.assoc.jsonl"
        pose = Pose6D(np.array([-0.0, 5e-324, -1e300]), np.array([-0.0, -1.0, 0.0, -0.0]))
        ds = Dataset(
            keyframes=(make_keyframe(0, [make_measurement(1, kf_id=0, pos=(0.1, 0, 0))]),),
            gt_landmarks=(GroundTruthLandmark(1, "door", pose),),
        )
        write_dataset(ds, path)
        text = path.read_text()
        assert '"position":[0.1,0.0,0.0]' in text
        assert '"timestamp":0.0,' in text
        assert '"position":[-0.0,5e-324,-1e+300],"quaternion":[0.0,1.0,-0.0,0.0]' in text
        assert "0.10000000000000001" not in text


class TestDatasetValidation:
    def test_non_unit_quaternion_names_line(self, tmp_path):
        path = tmp_path / "bad.assoc.jsonl"
        good = encode_record("config", {"scenario": None})
        bad = (
            '{"kind":"keyframe","version":1,"payload":{"keyframe_id":0,'
            '"timestamp":0,"camera_pose":{"position":[0,0,0],'
            '"quaternion":[1,1,0,0]},"measurements":[]}}'
        )
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(DataFormatError) as err:
            read_dataset(path)
        assert err.value.line == 2

    def test_dangling_gt_reference(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "ok.assoc.jsonl"
        write_dataset(ds, path)
        lines = path.read_text().splitlines()
        # corrupt only the measurement reference, not the gt table itself
        lines[-1] = lines[-1].replace('"gt_landmark_id":1', '"gt_landmark_id":99')
        bad = tmp_path / "dangling.assoc.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            read_dataset(bad)
        assert err.value.line == len(lines)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "kind.assoc.jsonl"
        path.write_text('{"kind":"mystery","version":1,"payload":{}}\n')
        with pytest.raises(DataFormatError) as err:
            read_dataset(path)
        assert err.value.line == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "mal.assoc.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(DataFormatError):
            read_dataset(path)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_refused_with_its_line(self, tmp_path, constant):
        path = tmp_path / "nan.assoc.jsonl"
        write_dataset(small_dataset(), path)
        lines = path.read_text().splitlines()
        assert lines[2].startswith('{"kind":"keyframe"') and '"timestamp":0.0,' in lines[2]
        lines[2] = lines[2].replace('"timestamp":0.0,', f'"timestamp":{constant},')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=f"{constant} is not a JSON number") as err:
            read_dataset(path)
        assert err.value.line == 3

    def test_duplicate_measurement_id(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "dup_src.assoc.jsonl"
        write_dataset(ds, path)
        text = path.read_text().replace('"measurement_id":2', '"measurement_id":1')
        dup = tmp_path / "dup.assoc.jsonl"
        dup.write_text(text)
        with pytest.raises(DataFormatError):
            read_dataset(dup)

    def test_duplicate_gt_landmark_id_refused_with_its_line(self, tmp_path):
        path = tmp_path / "dup_gt.assoc.jsonl"
        write_dataset(small_dataset(), path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith('{"kind":"gt_landmark"')
        # a second record for gt landmark 1, moved 5 m along x
        lines.insert(2, lines[1].replace('"position":[0.1', '"position":[5.1'))
        assert lines[2] != lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="duplicate gt_landmark_id 1") as err:
            read_dataset(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("at", [1, None], ids=["after-the-first", "at-the-end"])
    def test_second_config_record_refused_with_its_line(self, tmp_path, at):
        path = tmp_path / "two_configs.assoc.jsonl"
        write_dataset(generate(replace(preset("aisle_quick"), seed=0)), path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith('{"kind":"config"') and lines[0].endswith('"seed":0}}}')
        # a later config would otherwise replace the first: seed 5 for seed 0
        lines.insert(len(lines) if at is None else at, lines[0].replace('"seed":0}', '"seed":5}'))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="duplicate config record") as err:
            read_dataset(path)
        assert err.value.line == (len(lines) if at is None else at + 1)

    def test_config_record_after_line_1_refused_with_its_line(self, tmp_path):
        path = tmp_path / "late_config.assoc.jsonl"
        write_dataset(small_dataset(), path)
        lines = path.read_text().splitlines()
        lines.append(lines.pop(0))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="config must be line 1") as err:
            read_dataset(path)
        assert err.value.line == len(lines)

    @pytest.mark.parametrize("bad", ["1e999", "-1e999"])
    def test_timestamp_that_overflows_refused_with_its_line(self, tmp_path, bad):
        path = tmp_path / "overflow.assoc.jsonl"
        write_dataset(small_dataset(), path)
        text = path.read_text()
        path.write_text(text.replace('"timestamp":0.0,', f'"timestamp":{bad},', 1))
        with pytest.raises(DataFormatError, match="timestamp must be a finite number") as err:
            read_dataset(path)
        assert err.value.line == 3

    def test_duplicate_gt_landmark_id_refused_by_the_dataset(self):
        gt = small_dataset().gt_landmarks[0]
        with pytest.raises(InvalidInputError, match="duplicate gt_landmark_id 1"):
            Dataset(keyframes=(), gt_landmarks=(gt, replace(gt, pose=make_pose(5.1, 0.2, 0.3))))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_dataset(tmp_path / "absent.assoc.jsonl")


class TestMapAndReport:
    def test_map_round_trip(self, tmp_path):
        lm = GlobalLandmark(landmark_id=3, class_label="door")
        lm.associated_tracks = [(1, 0), (2, 1)]
        lm.measurements = [make_measurement(1), make_measurement(2, kf_id=1)]
        lm.measurement_ids = frozenset({1, 2})
        lm.refined_pose = make_pose(1, 2, 3)
        path = tmp_path / "map.assoc.jsonl"
        write_map([lm], {1: 3, 2: 3}, {"group_size": 7, "assoc.seed": 0}, path)
        manifest, landmarks, assignments = read_map(path)
        assert manifest["group_size"] == 7
        assert assignments == {1: 3, 2: 3}
        assert len(landmarks) == 1
        assert landmarks[0].landmark_id == 3
        assert landmarks[0].measurement_ids == (1, 2)
        assert np.array_equal(landmarks[0].refined_pose.position, [1, 2, 3])

    @pytest.mark.parametrize(
        "line, message",
        [
            (0, "duplicate config record"),
            (1, "duplicate landmark_id 3"),
            (2, "duplicate assignment of measurement 1"),
        ],
        ids=["config", "landmark", "assignment"],
    )
    def test_map_duplicate_id_refused_with_its_line(self, tmp_path, line, message):
        lm = GlobalLandmark(landmark_id=3, class_label="door")
        lm.associated_tracks = [(1, 0)]
        lm.measurement_ids = frozenset({1, 2})
        path = tmp_path / "map.assoc.jsonl"
        write_map([lm], {1: 3, 2: 3}, {"group_size": 7}, path)
        lines = path.read_text().splitlines()
        # a second copy of the record, right after it
        lines.insert(line + 1, lines[line])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=message) as err:
            read_map(path)
        assert err.value.line == line + 2

    @pytest.mark.parametrize(
        "assignments, message",
        [
            ({1: 3, 2: 4}, "unknown landmark_id 4"),
            ({1: 3, 5: 3}, "landmark 3 does not list measurement 5"),
        ],
        ids=["unknown-landmark", "not-listed"],
    )
    def test_map_assignment_outside_its_landmark_refused_with_its_line(
        self, tmp_path, assignments, message
    ):
        lm = GlobalLandmark(landmark_id=3, class_label="door")
        lm.associated_tracks = [(1, 0)]
        lm.measurement_ids = frozenset({1, 2})
        path = tmp_path / "map.assoc.jsonl"
        write_map([lm], assignments, {"group_size": 7}, path)
        with pytest.raises(DataFormatError, match=message) as err:
            read_map(path)
        # config, landmark, then the first assignment, which is sound
        assert err.value.line == 4

    def test_map_config_record_after_line_1_refused_with_its_line(self, tmp_path):
        lm = GlobalLandmark(landmark_id=3, class_label="door")
        lm.associated_tracks = [(1, 0)]
        lm.measurement_ids = frozenset({1})
        path = tmp_path / "map.assoc.jsonl"
        write_map([lm], {1: 3}, {"group_size": 7}, path)
        lines = path.read_text().splitlines()
        lines.insert(0, "")  # the config is the first record, but not on line 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="config must be line 1") as err:
            read_map(path)
        assert err.value.line == 2

    def test_map_null_refined_pose_reads_as_no_pose(self, tmp_path):
        lm = GlobalLandmark(landmark_id=3, class_label="door")
        lm.associated_tracks = [(1, 0)]
        lm.measurement_ids = frozenset({1})
        path = tmp_path / "map.assoc.jsonl"
        write_map([lm], {1: 3}, {"group_size": 7}, path)
        assert '"refined_pose":null' in path.read_text()
        _, landmarks, _ = read_map(path)
        assert landmarks[0].refined_pose is None

    @pytest.mark.parametrize(
        "value, message",
        [
            ('""', 'a pose must be an object, got ""'),
            ("false", "a pose must be an object, got false"),
            ("0", "a pose must be an object, got 0"),
            ("[]", r"a pose must be an object, got \[\]"),
            ("{}", "landmark missing field 'position'"),
            (None, "landmark missing field 'refined_pose'"),
        ],
        ids=["empty-string", "false", "zero", "empty-array", "empty-object", "missing"],
    )
    def test_map_malformed_refined_pose_refused_with_its_line(self, tmp_path, value, message):
        # only null is "no pose"; a falsy value is refused, not read as null
        lm = GlobalLandmark(landmark_id=3, class_label="door")
        lm.associated_tracks = [(1, 0)]
        lm.measurement_ids = frozenset({1})
        lm.refined_pose = make_pose(1, 2, 3)
        path = tmp_path / "map.assoc.jsonl"
        write_map([lm], {1: 3}, {"group_size": 7}, path)
        lines = path.read_text().splitlines()
        pose = '"refined_pose":{"position":[1.0,2.0,3.0],"quaternion":[1.0,0.0,0.0,0.0]},'
        assert pose in lines[1]
        lines[1] = lines[1].replace(pose, "" if value is None else f'"refined_pose":{value},')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=message) as err:
            read_map(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_map_non_finite_constant_refused_with_its_line(self, tmp_path, constant):
        lm = GlobalLandmark(landmark_id=3, class_label="door")
        lm.associated_tracks = [(1, 0)]
        lm.measurement_ids = frozenset({1})
        lm.refined_pose = make_pose(1, 2, 3)
        path = tmp_path / "map.assoc.jsonl"
        write_map([lm], {1: 3}, {"group_size": 7}, path)
        lines = path.read_text().splitlines()
        assert '"position":[1.0,2.0,3.0]' in lines[1]
        lines[1] = lines[1].replace('"position":[1.0,2.0,3.0]', f'"position":[1.0,{constant},3.0]')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=f"{constant} is not a JSON number") as err:
            read_map(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_report_non_finite_constant_refused_at_line_1(self, tmp_path, constant):
        payload = {
            "association_accuracy": 100.0, "predicted_count": 1, "gt_count": 1,
            "count_error": 0, "landmark_pose_rmse_pos": 0.5, "landmark_pose_rmse_rot": None,
            "per_landmark": [], "echo": {},
        }
        text = encode_record("report", payload)
        assert '"landmark_pose_rmse_pos":0.5' in text
        path = tmp_path / "report.assoc.jsonl"
        path.write_text(text.replace("0.5", constant) + "\n")
        with pytest.raises(DataFormatError, match=f"{constant} is not a JSON number") as err:
            read_report(path)
        assert err.value.line == 1

    def test_report_round_trip(self, tmp_path):
        report = EvalReport(
            association_accuracy=87.5,
            predicted_count=6,
            gt_count=6,
            count_error=0,
            landmark_pose_rmse_pos=0.12,
            landmark_pose_rmse_rot=3.4,
            per_landmark=(),
            echo={"dataset_seed": 3},
        )
        path = tmp_path / "report.assoc.jsonl"
        write_report(report, path)
        loaded = read_report(path)
        assert loaded.association_accuracy == 87.5
        assert loaded.echo == {"dataset_seed": 3}

    def test_report_refuses_a_second_nonblank_line(self, tmp_path):
        report = EvalReport(
            association_accuracy=87.5,
            predicted_count=6,
            gt_count=6,
            count_error=0,
            landmark_pose_rmse_pos=0.12,
            landmark_pose_rmse_rot=3.4,
            per_landmark=(),
            echo={},
        )
        path = tmp_path / "report.assoc.jsonl"
        write_report(report, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n  \n")
        assert read_report(path) == report  # blank lines after the record are fine
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{this is not json\n")
        with pytest.raises(DataFormatError, match="single record") as err:
            read_report(path)
        assert err.value.line == 4

    def test_report_with_rows_round_trips_to_an_equal_report(self, tmp_path):
        report = EvalReport(
            association_accuracy=87.5,
            predicted_count=2,
            gt_count=1,
            count_error=1,
            landmark_pose_rmse_pos=0.12,
            landmark_pose_rmse_rot=None,
            per_landmark=(
                LandmarkRow(3, 1, 7, 8, 7, 0.12, 2.5),
                LandmarkRow(4, None, 0, 1, 0, None, None),
            ),
            echo={"run": {"group_size": 7}},
        )
        path = tmp_path / "report.assoc.jsonl"
        write_report(report, path)
        assert read_report(path) == report

    @pytest.mark.parametrize("edit", ["drop_gt_count", "extra_field", "extra_row_field"])
    def test_report_fields_must_match_the_dataclass(self, tmp_path, edit):
        payload = {
            "association_accuracy": 100.0, "predicted_count": 1, "gt_count": 1,
            "count_error": 0, "landmark_pose_rmse_pos": None, "landmark_pose_rmse_rot": None,
            "per_landmark": [{"landmark_id": 1, "gt_landmark_id": 1, "shared": 1,
                              "predicted_size": 1, "gt_size": 1, "pos_error_m": None,
                              "rot_error_deg": None}],
            "echo": {},
        }
        if edit == "drop_gt_count":
            del payload["gt_count"]
        elif edit == "extra_field":
            payload["mystery"] = 1
        else:
            payload["per_landmark"][0]["mystery"] = 1
        path = tmp_path / "report.assoc.jsonl"
        path.write_text(encode_record("report", payload) + "\n")
        with pytest.raises(DataFormatError) as err:
            read_report(path)
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda p: p.update(gt_count=True), id="bool_count"),
            pytest.param(lambda p: p.update(predicted_count=1.5), id="fractional_count"),
            pytest.param(lambda p: p.update(count_error="six"), id="string_count"),
            pytest.param(lambda p: p.update(association_accuracy=True), id="bool_accuracy"),
            pytest.param(lambda p: p.update(landmark_pose_rmse_pos="0.1"), id="string_rmse"),
            pytest.param(lambda p: p.update(echo=3), id="numeric_echo"),
            pytest.param(lambda p: p["per_landmark"][0].update(shared=True), id="bool_shared"),
            pytest.param(lambda p: p["per_landmark"][0].update(gt_size=1.5), id="fractional_size"),
            pytest.param(
                lambda p: p["per_landmark"][0].update(landmark_id="six"), id="string_landmark_id"
            ),
            pytest.param(
                lambda p: p["per_landmark"][0].update(pos_error_m=True), id="bool_pos_error"
            ),
        ],
    )
    def test_report_values_of_the_wrong_type_refused_at_line_1(self, tmp_path, edit):
        payload = {
            "association_accuracy": 100.0, "predicted_count": 1, "gt_count": 1,
            "count_error": 0, "landmark_pose_rmse_pos": 0.5, "landmark_pose_rmse_rot": None,
            "per_landmark": [{"landmark_id": 1, "gt_landmark_id": None, "shared": 1,
                              "predicted_size": 1, "gt_size": 1, "pos_error_m": 0.5,
                              "rot_error_deg": None}],
            "echo": {},
        }
        path = tmp_path / "report.assoc.jsonl"
        path.write_text(encode_record("report", payload) + "\n")
        assert read_report(path).per_landmark[0].pos_error_m == 0.5
        edit(payload)
        path.write_text(encode_record("report", payload) + "\n")
        with pytest.raises(DataFormatError) as err:
            read_report(path)
        assert err.value.line == 1

    def test_encode_rejects_unknown_kind(self):
        with pytest.raises(DataFormatError):
            encode_record("sidecar", {})

    def test_encode_rejects_non_finite(self):
        with pytest.raises(DataFormatError):
            encode_record("report", {"x": float("nan")})


class TestOlderLayout:
    """Older dataset files carry an ``object_track_hint`` per measurement, after its id.

    The reader reads named keys only, so the key is ignored whatever its
    value, and a file's tracks come from the tracker's cost matrix alone.
    """

    @pytest.mark.parametrize(
        "hint",
        ["null", "gt", "id"],
        # a distinct hint per measurement, if obeyed, would split every track
        ids=["null", "one-per-gt-object", "one-per-measurement"],
    )
    def test_a_track_hint_is_read_and_ignored(self, tmp_path, hint):
        dataset = generate(replace(preset("aisle_quick"), seed=0))
        path = tmp_path / "now.assoc.jsonl"
        write_dataset(dataset, path)

        def with_hint(match):
            value = {"null": "null", "gt": match["gt"], "id": match["id"]}[hint]
            return f'{match["head"]}"object_track_hint":{value},{match["tail"]}'

        measurement = re.compile(
            r'(?P<head>\{"measurement_id":(?P<id>\d+),)'
            r'(?P<tail>.*?"gt_landmark_id":(?P<gt>null|\d+)\})'
        )
        text, count = measurement.subn(with_hint, path.read_text())
        assert count == dataset.measurement_count
        if hint != "null":
            assert '"object_track_hint":null' not in text
        older = tmp_path / "older.assoc.jsonl"
        older.write_text(text)

        again = tmp_path / "again.assoc.jsonl"
        write_dataset(read_dataset(older), again)
        assert again.read_bytes() == path.read_bytes()
        assert map_bytes(older, tmp_path / "older_map.assoc.jsonl") == map_bytes(
            path, tmp_path / "now_map.assoc.jsonl"
        )


# ---------------------------------------------------------------------------
# strategies

SUBNORMAL = 5e-324
EDGE_FLOATS = [0.0, -0.0, SUBNORMAL, -SUBNORMAL, 2.2250738585072014e-308 / 3, 1e300, -1e300,
               0.1, 1.0 / 3.0, 123456789.123456789]
_finite = st.floats(allow_nan=False, allow_infinity=False)
_reals = st.sampled_from(EDGE_FLOATS) | _finite | st.floats(-10.0, 10.0)
_ids = st.integers(-(2**63), 2**63 - 1) | st.integers(0, 50)
_labels = st.sampled_from(["door", "chair"]) | st.text(max_size=8)


@st.composite
def unit_vectors(draw, size):
    """Unit vectors: random ones, or one +-1 among zeros, -0.0s and subnormals."""
    if draw(st.booleans()):
        v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)))
        norm = np.linalg.norm(v)
        if norm > 0.1:
            return v / norm
    v = draw(st.lists(st.sampled_from([0.0, -0.0, SUBNORMAL, -SUBNORMAL]),
                      min_size=size, max_size=size))
    v[draw(st.integers(0, size - 1))] = draw(st.sampled_from([1.0, -1.0]))
    return np.array(v)


@st.composite
def poses(draw):
    position = draw(st.lists(_reals, min_size=3, max_size=3))
    return Pose6D(np.array(position), draw(unit_vectors(4)))


_box_values = (st.integers(0, 10**6) | st.sampled_from([0.0, -0.0, SUBNORMAL, 1e300, 2**60])
               | st.floats(0.0, 1e300))


@st.composite
def boxes(draw):
    xs = sorted(draw(st.lists(_box_values, min_size=2, max_size=2, unique_by=float)))
    ys = sorted(draw(st.lists(_box_values, min_size=2, max_size=2, unique_by=float)))
    return BoundingBox2D(xs[0], ys[0], xs[1], ys[1])


@st.composite
def measurements(draw, keyframe_id):
    return ObjectMeasurement(
        measurement_id=draw(_ids),
        keyframe_id=keyframe_id,
        class_label=draw(_labels),
        bbox=draw(boxes()),
        pose=draw(poses()),
        appearance=draw(st.integers(1, 6).flatmap(unit_vectors)),
        gt_landmark_id=draw(st.none() | _ids | _ids.map(np.int64)),
    )


@st.composite
def keyframes(draw):
    keyframe_id = draw(_ids)
    return Keyframe(
        keyframe_id=keyframe_id,
        timestamp=draw(_reals | st.integers(-(2**70), 2**70)),
        camera_pose=draw(poses()),
        measurements=tuple(draw(st.lists(measurements(keyframe_id), max_size=3))),
    )


@st.composite
def landmarks(draw):
    ids = draw(st.frozensets(st.integers(0, 10**6), max_size=6))
    # numpy ints among the ids, equal to and sorting with Python ints
    ids = frozenset(np.int64(i) if draw(st.booleans()) else i for i in ids)
    return SimpleNamespace(
        landmark_id=draw(_ids),
        class_label=draw(_labels),
        refined_pose=draw(st.none() | poses()),
        associated_tracks=draw(
            st.sets(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=5)
            | st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=5)
        ),
        measurement_ids=ids,
    )


def bits(values) -> list:
    """Each number's type and value, a float's as its bits: -0.0 differs from 0.0, 1 from 1.0."""
    return [(float, struct.pack("<d", v)) if type(v) is float else (type(v), v) for v in values]


def pose_bits(pose) -> list:
    return bits(pose.position.tolist()) + bits(pose.orientation.tolist())


def box_values(box) -> list:
    return [box.x_min, box.y_min, box.x_max, box.y_max]


def write_read_dataset(dataset) -> Dataset:
    """``dataset`` read back from its file; writing what was read must give the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.assoc.jsonl"), Path(tmp, "second.assoc.jsonl")
        write_dataset(dataset, first)
        read = read_dataset(first)
        write_dataset(read, second)
        assert second.read_bytes() == first.read_bytes()
    return read


def write_read_map(landmarks, assignments):
    """The landmarks and assignments read back from a map file, rewritten to the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.assoc.jsonl"), Path(tmp, "second.assoc.jsonl")
        write_map(landmarks, assignments, {}, first)
        _, read, read_assignments = read_map(first)
        again = [SimpleNamespace(**vars(r), associated_tracks=r.tracks) for r in read]
        write_map(again, read_assignments, {}, second)
        assert second.read_bytes() == first.read_bytes()
    return read, read_assignments


def stand_in(obj, **changes):
    """``obj`` with some attributes replaced and no checks run; the writers read attributes only."""
    return SimpleNamespace(**{**vars(obj), **changes})


def spoil(values, index: int, bad: float) -> np.ndarray:
    """``values`` as a float array with one of them replaced by ``bad``."""
    values = np.array(values, dtype=float)
    values[index % values.size] = bad
    return values


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestRoundTrip:
    """What the writer writes reads back bit for bit, -0.0 and subnormals included."""

    @given(keyframes())
    def test_keyframe(self, kf):
        ids = [m.measurement_id for m in kf.measurements]
        assume(len(set(ids)) == len(ids))
        gt_ids = sorted({int(m.gt_landmark_id) for m in kf.measurements
                         if m.gt_landmark_id is not None})
        dataset = Dataset(
            keyframes=(kf,),
            gt_landmarks=tuple(GroundTruthLandmark(g, "door", make_pose()) for g in gt_ids),
        )
        (got,) = write_read_dataset(dataset).keyframes
        assert got.keyframe_id == kf.keyframe_id
        assert bits([got.timestamp]) == bits([kf.timestamp])
        assert pose_bits(got.camera_pose) == pose_bits(kf.camera_pose)
        assert len(got.measurements) == len(kf.measurements)
        for g, w in zip(got.measurements, kf.measurements):
            assert (g.measurement_id, g.keyframe_id, g.class_label, g.gt_landmark_id) == (
                w.measurement_id, w.keyframe_id, w.class_label, w.gt_landmark_id)
            assert bits(box_values(g.bbox)) == bits(box_values(w.bbox))
            assert pose_bits(g.pose) == pose_bits(w.pose)
            assert bits(g.appearance.tolist()) == bits(w.appearance.tolist())

    @given(_ids, _labels, poses())
    def test_gt_landmark(self, gt_id, label, pose):
        gt = GroundTruthLandmark(gt_id, label, pose)
        (got,) = write_read_dataset(Dataset(keyframes=(), gt_landmarks=(gt,))).gt_landmarks
        assert (got.gt_landmark_id, got.class_label) == (gt_id, label)
        assert pose_bits(got.pose) == pose_bits(pose)

    @given(landmarks())
    def test_landmark_and_its_assignments(self, lm):
        assignments = {mid: lm.landmark_id for mid in lm.measurement_ids}
        (got,), got_assignments = write_read_map([lm], assignments)
        assert (got.landmark_id, got.class_label) == (lm.landmark_id, lm.class_label)
        assert got.tracks == tuple(sorted(lm.associated_tracks))
        assert got.measurement_ids == tuple(sorted(lm.measurement_ids))
        assert got_assignments == assignments
        if lm.refined_pose is None:
            assert got.refined_pose is None
        else:
            assert pose_bits(got.refined_pose) == pose_bits(lm.refined_pose)

    @given(keyframes().filter(lambda kf: kf.measurements), st.integers(0, 5), st.integers(0, 7),
           st.sampled_from(NON_FINITE))
    def test_non_finite_value_in_any_keyframe_array_refused(self, kf, which, index, bad):
        m, camera = kf.measurements[0], kf.camera_pose
        spoiled = [
            stand_in(m, pose=stand_in(m.pose, position=spoil(m.pose.position, index, bad))),
            stand_in(m, pose=stand_in(m.pose, orientation=spoil(m.pose.orientation, index, bad))),
            stand_in(m, appearance=spoil(m.appearance, index, bad)),
            stand_in(m, bbox=SimpleNamespace(**dict(zip(
                ("x_min", "y_min", "x_max", "y_max"), spoil(box_values(m.bbox), index, bad))))),
        ]
        keyframe = [
            stand_in(kf, camera_pose=stand_in(camera, position=spoil(camera.position, index, bad))),
            stand_in(kf, camera_pose=stand_in(
                camera, orientation=spoil(camera.orientation, index, bad))),
            *(stand_in(kf, measurements=(s,) + kf.measurements[1:]) for s in spoiled),
        ][which]
        dataset = SimpleNamespace(config=None, gt_landmarks=(), keyframes=(keyframe,))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "refused.assoc.jsonl")
            with pytest.raises(DataFormatError):
                write_dataset(dataset, path)
            assert not path.exists()

    @given(landmarks().filter(lambda lm: lm.refined_pose is not None), st.booleans(),
           st.integers(0, 3), st.sampled_from(NON_FINITE))
    def test_non_finite_refined_pose_value_refused(self, lm, position, index, bad):
        pose = lm.refined_pose
        name = "position" if position else "orientation"
        lm.refined_pose = stand_in(pose, **{name: spoil(getattr(pose, name), index, bad)})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "refused.assoc.jsonl")
            with pytest.raises(DataFormatError):
                write_map([lm], {}, {}, path)
            assert not path.exists()

    def test_map_bytes_do_not_depend_on_set_order(self, tmp_path):
        lm = SimpleNamespace(landmark_id=1, class_label="door", refined_pose=None,
                             associated_tracks={(3, 1), (0, 2), (3, 0)},
                             measurement_ids=frozenset({9, 2, 40, 7}))
        path = tmp_path / "map.assoc.jsonl"
        write_map([lm], {9: 1, 2: 1}, {}, path)
        assert path.read_text().splitlines()[1] == (
            '{"kind":"landmark","version":1,"payload":{"landmark_id":1,"class_label":"door",'
            '"refined_pose":null,"tracks":[[0,2],[3,0],[3,1]],"measurement_ids":[2,7,9,40]}}'
        )


# ---------------------------------------------------------------------------
# the older 17-digit format
#
# Older files print each float with 17 significant digits, an integral float
# as an integer and -0.0 as 0. ``old_encode`` is the generic encoder that
# wrote them, and the payload dicts below are what it wrote per record kind
# (the fixed layouts it had besides equalled ``old_encode`` of them byte for
# byte). OLD_DIGESTS pins that this writer reproduces such files.


def old_encode(value) -> str:
    if type(value) is int:
        return str(value)
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
        return "[" + ",".join(old_encode(v) for v in value) + "]"
    if isinstance(value, dict):
        items = ",".join(f"{json.dumps(str(k))}:{old_encode(v)}" for k, v in value.items())
        return "{" + items + "}"
    raise DataFormatError(f"cannot serialize value of type {type(value).__name__}")


def pose_payload(pose):
    return {"position": list(pose.position), "quaternion": list(pose.orientation)}


def measurement_payload(m):
    return {
        "measurement_id": m.measurement_id,
        "keyframe_id": m.keyframe_id,
        "class_label": m.class_label,
        "bbox": [m.bbox.x_min, m.bbox.y_min, m.bbox.x_max, m.bbox.y_max],
        "pose": pose_payload(m.pose),
        "appearance": list(m.appearance),
        "gt_landmark_id": m.gt_landmark_id,
    }


def keyframe_payload(kf):
    return {
        "keyframe_id": kf.keyframe_id,
        "timestamp": kf.timestamp,
        "camera_pose": pose_payload(kf.camera_pose),
        "measurements": [measurement_payload(m) for m in kf.measurements],
    }


def gt_landmark_payload(gt):
    return {"gt_landmark_id": gt.gt_landmark_id, "class_label": gt.class_label,
            "pose": pose_payload(gt.pose)}


def landmark_payload(lm):
    return {
        "landmark_id": lm.landmark_id,
        "class_label": lm.class_label,
        "refined_pose": pose_payload(lm.refined_pose) if lm.refined_pose else None,
        "tracks": [list(t) for t in sorted(lm.associated_tracks)],
        "measurement_ids": sorted(lm.measurement_ids),
    }


def old_lines(kind, payloads) -> list:
    return [old_encode({"kind": kind, "version": 1, "payload": p}) for p in payloads]


def write_old_dataset(dataset, path) -> None:
    scenario = asdict(dataset.config) if dataset.config else None
    lines = old_lines("config", [{"scenario": scenario}])
    lines += old_lines("gt_landmark", map(gt_landmark_payload, dataset.gt_landmarks))
    lines += old_lines("keyframe", map(keyframe_payload, dataset.keyframes))
    path.write_bytes(("\n".join(lines) + "\n").encode())


def write_old_map(landmarks, assignments, manifest, path) -> None:
    lines = old_lines("config", [{"run": manifest}])
    lines += old_lines("landmark", map(landmark_payload, landmarks))
    lines += old_lines("assignment", ({"measurement_id": mid, "landmark_id": assignments[mid]}
                                      for mid in sorted(assignments)))
    path.write_bytes(("\n".join(lines) + "\n").encode())


def run_default(dataset):
    config = RunConfig()
    return config, run_association(
        dataset.keyframes,
        group_size=config.group_size,
        group_overlap=config.group_overlap,
        tracker_params=config.tracker_params(),
        assoc_params=config.assoc_params(),
        base_cov=config.base_cov(),
        refine_params=config.refine_params(),
    )


def map_bytes(dataset_path, map_path) -> bytes:
    """The default hierarchical map of a dataset file, as the writer writes it."""
    config, result = run_default(read_dataset(dataset_path))
    write_map(result.landmarks, result.assignments, config_to_mapping(config), map_path)
    return map_path.read_bytes()


# SHA-256 of the aisle_quick seed-0 dataset and of its default hierarchical
# map, as the 17-digit writer wrote them
OLD_DIGESTS = {
    "dataset": "357a22eaf47ee4c80a8720246db637a9b1f7b365db1c17a9744f23240487e6f6",
    "map": "0a79f5b00f414437c98048b3ecb41470428dccf8c5d6717e8498a0014f4509ff",
}


class TestSeventeenDigitFiles:
    """Files in the older 17-digit format read to the values of the same file written now.

    Floats are equal bit for bit, except a -0.0 that the older file holds as 0;
    an integral float it holds as an integer reads as that integer.
    """

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("formats")
        dataset = generate(replace(preset("aisle_quick"), seed=0))
        config, result = run_default(dataset)
        paths = SimpleNamespace(**{f"{fmt}_{kind}": tmp / f"{fmt}_{kind}.assoc.jsonl"
                                   for fmt in ("old", "new") for kind in ("dataset", "map")})
        write_old_dataset(dataset, paths.old_dataset)
        write_dataset(dataset, paths.new_dataset)
        manifest = config_to_mapping(config)
        write_old_map(result.landmarks, result.assignments, manifest, paths.old_map)
        write_map(result.landmarks, result.assignments, manifest, paths.new_map)
        return paths

    def test_the_reference_writer_writes_the_older_format(self, files):
        for kind in ("dataset", "map"):
            digest = hashlib.sha256(getattr(files, f"old_{kind}").read_bytes()).hexdigest()
            assert digest == OLD_DIGESTS[kind]

    def test_an_older_dataset_reads_to_the_same_values(self, files):
        old, new = read_dataset(files.old_dataset), read_dataset(files.new_dataset)
        assert files.old_dataset.read_bytes() != files.new_dataset.read_bytes()
        # 17 digits tell any two doubles apart; the older text merges only 0 with -0.0
        # and an integer with its float
        assert old_encode(asdict(old)) == old_encode(asdict(new))
        assert old.config == new.config

    def test_an_older_map_reads_to_the_same_values(self, files):
        (old_manifest, old, old_assignments) = read_map(files.old_map)
        (new_manifest, new, new_assignments) = read_map(files.new_map)
        assert files.old_map.read_bytes() != files.new_map.read_bytes()
        assert old_encode(old_manifest) == old_encode(new_manifest)
        assert old_encode([asdict(lm) for lm in old]) == old_encode([asdict(lm) for lm in new])
        assert old_assignments == new_assignments

    def test_an_older_dataset_gives_the_same_map(self, files, tmp_path):
        old = map_bytes(files.old_dataset, tmp_path / "from_old.assoc.jsonl")
        assert old == map_bytes(files.new_dataset, tmp_path / "from_new.assoc.jsonl")
        assert old == files.new_map.read_bytes()
