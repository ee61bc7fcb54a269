from dataclasses import replace

import numpy as np
import pytest

from objassoc.association import GlobalLandmark
from objassoc.errors import DataFormatError
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
        make_measurement(2, kf_id=2, pos=(1.5, 0, 0), gt=1, hint=4),
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

    def test_floats_use_seventeen_significant_digits(self, tmp_path):
        path = tmp_path / "f.assoc.jsonl"
        ds = Dataset(
            keyframes=(make_keyframe(0, [make_measurement(1, kf_id=0, pos=(0.1, 0, 0))]),),
            gt_landmarks=(),
        )
        write_dataset(ds, path)
        assert "0.10000000000000001" in path.read_text()


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

    def test_duplicate_measurement_id(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "dup_src.assoc.jsonl"
        write_dataset(ds, path)
        text = path.read_text().replace('"measurement_id":2', '"measurement_id":1')
        dup = tmp_path / "dup.assoc.jsonl"
        dup.write_text(text)
        with pytest.raises(DataFormatError):
            read_dataset(dup)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_dataset(tmp_path / "absent.assoc.jsonl")

    @pytest.mark.parametrize("hint", ["[4]", '"x"', "{}"])
    def test_track_hint_must_be_an_integer(self, tmp_path, hint):
        path = tmp_path / "hint.assoc.jsonl"
        write_dataset(small_dataset(), path)
        lines = path.read_text().splitlines()
        assert '"object_track_hint":4' in lines[-1]
        lines[-1] = lines[-1].replace('"object_track_hint":4', f'"object_track_hint":{hint}')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            read_dataset(path)
        assert err.value.line == len(lines)


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
