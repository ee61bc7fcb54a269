import hashlib
import json
import math

import pytest

from objassoc.cli import main
from objassoc.records import encode_record, read_dataset, read_map, read_report, write_dataset
from objassoc.synth import Dataset

from conftest import make_keyframe, make_measurement
from objassoc.synth import GroundTruthLandmark
from conftest import make_pose


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def single_object_dataset_file(tmp_path, n=9):
    keyframes = [
        make_keyframe(k, [make_measurement(k + 1, kf_id=k, pos=(3.0, 0, 1.0), gt=1)])
        for k in range(n)
    ]
    ds = Dataset(
        keyframes=tuple(keyframes),
        gt_landmarks=(GroundTruthLandmark(1, "door", make_pose(3.0, 0, 1.0)),),
    )
    path = tmp_path / "single.assoc.jsonl"
    write_dataset(ds, path)
    return path


class TestSynth:
    def test_preset_writes_expected_ground_truth(self, tmp_path, capsys):
        out = tmp_path / "ds.assoc.jsonl"
        assert run_cli("synth", "--preset", "aisle_slow", "--seed", 7, "-o", out) == 0
        ds = read_dataset(out)
        assert len(ds.gt_landmarks) == 6
        assert "gt landmarks: 6" in capsys.readouterr().out

    def test_same_command_twice_identical(self, tmp_path):
        a, b = tmp_path / "a.assoc.jsonl", tmp_path / "b.assoc.jsonl"
        run_cli("synth", "--preset", "aisle_quick", "--seed", 5, "-o", a)
        run_cli("synth", "--preset", "aisle_quick", "--seed", 5, "-o", b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_preset_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("synth", "--preset", "warehouse", "-o", tmp_path / "x.assoc.jsonl")
        assert err.value.code == 2

    def test_scenario_file_reused_with_new_seed(self, tmp_path):
        base = tmp_path / "base.assoc.jsonl"
        derived = tmp_path / "derived.assoc.jsonl"
        run_cli("synth", "--preset", "office_desk", "--seed", 1, "-o", base)
        assert run_cli("synth", "--scenario", base, "--seed", 2, "-o", derived) == 0
        a, b = read_dataset(base), read_dataset(derived)
        assert a.config.landmarks == b.config.landmarks
        assert (a.config.seed, b.config.seed) == (1, 2)

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.assoc.jsonl"
        assert run_cli("synth", "--preset", "aisle_quick", "--seed", -3, "-o", out) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: seed")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda sc: sc.update(keyframe_stride=2.5), id="fractional_stride"),
            pytest.param(lambda sc: sc.update(appearance_dim=16.5), id="fractional_dim"),
            pytest.param(lambda sc: sc["landmarks"][0].update(position="abc"), id="string_position"),
            pytest.param(lambda sc: sc["camera"].update(waypoints=["ab", "cd"]), id="string_waypoints"),
            pytest.param(
                lambda sc: sc["landmarks"][0].update(similarity_group=1.5), id="fractional_group"
            ),
            pytest.param(lambda sc: sc.update(pos_noise_sigma_m=-0.05), id="negative_sigma"),
            # a value of the wrong JSON type is refused, not cast
            pytest.param(lambda sc: sc["landmarks"][0].update(class_label=5), id="numeric_label"),
            pytest.param(lambda sc: sc["camera"].update(speed_factor=True), id="bool_speed"),
            pytest.param(lambda sc: sc.update(max_range=True), id="bool_range"),
            # checked when the scenario is built, not first when it is generated
            pytest.param(
                lambda sc: sc["landmarks"][0].update(orientation=[1, 1, 1, 1]), id="non_unit_quat"
            ),
            pytest.param(
                lambda sc: sc["camera"].update(waypoints=[[1, 2, 3], [1, 2, 3]]), id="zero_path"
            ),
            pytest.param(lambda sc: sc.update(appearance_dim=2), id="dim_below_group_count"),
            # 20 m at a 1e-10 m step: a path that would never finish walking
            pytest.param(lambda sc: sc["camera"].update(speed_factor=1e-9), id="endless_path"),
            # written as the literal 1e999, which the decoder reads as inf
            pytest.param(
                lambda sc: sc["camera"].update(speed_factor=math.inf), id="infinite_speed"
            ),
            pytest.param(
                lambda sc: sc.update(rot_outlier_min_deg=math.inf), id="infinite_outlier_angle"
            ),
            pytest.param(lambda sc: sc.update(max_range=-math.inf), id="minus_infinite_range"),
            # a pinhole camera sees less than 90 degrees either side
            pytest.param(lambda sc: sc.update(fov_half_angle_deg=90.0), id="fov_90"),
        ],
    )
    def test_bad_embedded_scenario_exits_3(self, tmp_path, capsys, edit):
        base = tmp_path / "base.assoc.jsonl"
        run_cli("synth", "--preset", "aisle_quick", "--seed", 0, "-o", base)
        lines = base.read_text().splitlines()
        record = json.loads(lines[0])
        edit(record["payload"]["scenario"])
        lines[0] = json.dumps(record).replace("Infinity", "1e999")
        base.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = tmp_path / "derived.assoc.jsonl"
        for args in (("synth", "--scenario", base), ("run", base)):
            assert run_cli(*args, "-o", out) == 3, args[0]
            err = capsys.readouterr().err
            assert err.startswith("error: line 1: ")
            assert err.count("\n") == 1
            assert "Traceback" not in err
            assert not out.exists()


class TestRun:
    def test_single_object_yields_one_landmark(self, tmp_path):
        dataset = single_object_dataset_file(tmp_path)
        out = tmp_path / "map.assoc.jsonl"
        assert run_cli("run", dataset, "-o", out) == 0
        _, landmarks, assignments = read_map(out)
        assert len(landmarks) == 1
        assert len(assignments) == 9

    def test_flat_flag_overrides_grouping(self, tmp_path):
        dataset = single_object_dataset_file(tmp_path)
        out = tmp_path / "map.assoc.jsonl"
        assert run_cli("run", dataset, "--flat", "-o", out) == 0
        manifest, _, _ = read_map(out)
        assert manifest["group_size"] == 1
        assert manifest["group_overlap"] == 0

    def test_missing_dataset_exits_3(self, tmp_path):
        code = run_cli("run", tmp_path / "absent.assoc.jsonl", "-o", tmp_path / "m.assoc.jsonl")
        assert code == 3

    @pytest.mark.parametrize(
        "line, options, named",
        [
            pytest.param("tracker.w_app = 0.9", (), (), id="weights_not_summing_to_1"),
            pytest.param("refine.A_deg = nan", (), ("refine.A_deg",), id="nan"),
            pytest.param("tracker.gate_radius = inf", (), ("tracker.gate_radius",), id="inf"),
            pytest.param(
                "tracker.gate_radius = nan", (), ("tracker.gate_radius",), id="gate_radius_nan"
            ),
            pytest.param("gmm.base_cov_pos_sigma = -0.25", (), (), id="negative_sigma"),
            pytest.param("gmm.base_cov_pos_sigma = 0", (), (), id="zero_sigma"),
            pytest.param(
                "gmm.base_cov_pos_sigma = 1e-5", (), ("gmm.base_cov_pos_sigma",),
                id="sigma_squared_below_floor",
            ),
            pytest.param(
                "gmm.base_cov_pos_sigma = 1e200", (), ("gmm.base_cov_pos_sigma",),
                id="pos_sigma_squared_overflows",
            ),
            pytest.param(
                "gmm.base_cov_rot_sigma_deg = 1e200", (), ("gmm.base_cov_rot_sigma_deg",),
                id="rot_sigma_squared_overflows",
            ),
            pytest.param(
                "assoc.alpha_new = 1e-300\nassoc.workspace_volume = 1e300", (),
                ("assoc.alpha_new", "assoc.workspace_volume"), id="new_weight_underflows",
            ),
            pytest.param(
                "assoc.alpha_new = 1e308\nassoc.workspace_volume = 1e-6", (),
                ("assoc.alpha_new", "assoc.workspace_volume"), id="new_weight_overflows",
            ),
            pytest.param(
                "assoc.workspace_volume = 1e308", (),
                ("assoc.alpha_new", "assoc.workspace_volume"), id="base_density_underflows",
            ),
            pytest.param(
                "assoc.workspace_volume = 0", (), ("assoc.workspace_volume",),
                id="zero_workspace_volume",
            ),
            pytest.param(
                "assoc.workspace_volume = -5", (), ("assoc.workspace_volume",),
                id="negative_workspace_volume",
            ),
            pytest.param("assoc.seed = -1", (), (), id="negative_seed_in_config"),
            pytest.param("", ("--seed", -3), (), id="negative_seed_option"),
            pytest.param("group_overlap = 7", (), (), id="overlap_not_below_group_size"),
        ],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, line, options, named):
        dataset = single_object_dataset_file(tmp_path)
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "m.assoc.jsonl"
        code = run_cli("run", dataset, "--config", config, *options, "-o", out)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert all(key in err for key in named)

    def test_bad_new_weight_is_checked_before_the_dataset(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("assoc.alpha_new = 1e-300\nassoc.workspace_volume = 1e300\n")
        out = tmp_path / "m.assoc.jsonl"
        code = run_cli("run", tmp_path / "absent.assoc.jsonl", "--config", config, "-o", out)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: assoc.alpha_new")

    def test_an_overlap_boost_that_overflows_a_weight_exits_2(self, tmp_path, capsys):
        # The second group's track shares two measurements with the first
        # group's landmark, so its weight is boosted past the largest float.
        dataset = single_object_dataset_file(tmp_path)
        config = tmp_path / "boost.cfg"
        config.write_text("assoc.overlap_boost = 1e308\n")
        out = tmp_path / "m.assoc.jsonl"
        code = run_cli("run", dataset, "--config", config, "-o", out)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "assoc.overlap_boost" in err
        # At the default boost the same dataset runs.
        assert run_cli("run", dataset, "-o", out) == 0

    def test_a_nan_tracking_cost_exits_2_naming_the_cost_matrix(self, tmp_path, capsys, monkeypatch):
        # The assignment solver refuses a NaN entry with NumericalError, which
        # the CLI reports as exit 2, not as a bare ValueError and a traceback.
        import objassoc.tracking

        dataset = single_object_dataset_file(tmp_path)
        monkeypatch.setattr(objassoc.tracking, "track_cost", lambda *args: math.nan)
        out = tmp_path / "m.assoc.jsonl"
        assert run_cli("run", dataset, "-o", out) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error: cost matrix contains NaN or -inf entries\n"

    def test_bad_seed_option_is_checked_before_the_dataset(self, tmp_path, capsys):
        out = tmp_path / "m.assoc.jsonl"
        code = run_cli("run", tmp_path / "absent.assoc.jsonl", "--seed", -3, "-o", out)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: rng_seed")

    def test_nan_appearance_in_dataset_exits_3(self, tmp_path, capsys):
        dataset = single_object_dataset_file(tmp_path)
        text = dataset.read_text()
        edited = text.replace('"appearance":[1.0,', '"appearance":[NaN,', 1)
        assert edited != text
        dataset.write_text(edited)
        out = tmp_path / "m.assoc.jsonl"
        assert run_cli("run", dataset, "-o", out) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        # the reader refuses the constant itself, on the keyframe's line
        assert err.startswith("error: line 3: ") and "NaN is not a JSON number" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_infinite_timestamp_in_dataset_exits_3(self, tmp_path, capsys):
        # 1e999 parses as inf, which the writer could never have written
        dataset = single_object_dataset_file(tmp_path)
        text = dataset.read_text()
        edited = text.replace('"timestamp":0.0,', '"timestamp":1e999,', 1)
        assert edited != text
        dataset.write_text(edited)
        out = tmp_path / "m.assoc.jsonl"
        assert run_cli("run", dataset, "-o", out) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and "timestamp must be a finite number" in err
        assert err.count("\n") == 1

    def test_unknown_config_key_exits_2(self, tmp_path):
        dataset = single_object_dataset_file(tmp_path)
        config = tmp_path / "bad.cfg"
        config.write_text("mystery.knob = 3\n")
        assert run_cli("run", dataset, "--config", config, "-o", tmp_path / "m.assoc.jsonl") == 2


class TestEval:
    def test_perfect_run_reports_hundred(self, tmp_path):
        dataset = single_object_dataset_file(tmp_path)
        map_path = tmp_path / "map.assoc.jsonl"
        report_path = tmp_path / "report.assoc.jsonl"
        run_cli("run", dataset, "-o", map_path)
        assert run_cli("eval", map_path, dataset, "-o", report_path) == 0
        report = read_report(report_path)
        assert report.association_accuracy == 100.0
        assert report.predicted_count == 1

    def test_report_echoes_seed_and_manifest_hash(self, tmp_path):
        dataset = single_object_dataset_file(tmp_path)
        map_path = tmp_path / "map.assoc.jsonl"
        report_path = tmp_path / "report.assoc.jsonl"
        run_cli("run", dataset, "-o", map_path)
        run_cli("eval", map_path, dataset, "-o", report_path)
        report = read_report(report_path)
        assert "manifest_hash" in report.echo
        assert len(report.echo["manifest_hash"]) == 64
        assert report.echo["run"]["assoc.seed"] == 0

    def test_csv_header_once_rows_appended(self, tmp_path):
        dataset = single_object_dataset_file(tmp_path)
        map_path = tmp_path / "map.assoc.jsonl"
        csv_path = tmp_path / "rows.csv"
        run_cli("run", dataset, "-o", map_path)
        run_cli("eval", map_path, dataset, "-o", tmp_path / "r1.assoc.jsonl", "--csv", csv_path)
        run_cli("eval", map_path, dataset, "-o", tmp_path / "r2.assoc.jsonl", "--csv", csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("scenario,seed,group_size")
        assert len(lines) == 3

    def test_unreadable_map_exits_3(self, tmp_path):
        dataset = single_object_dataset_file(tmp_path)
        code = run_cli("eval", tmp_path / "no.assoc.jsonl", dataset, "-o", tmp_path / "r.assoc.jsonl")
        assert code == 3


def assert_refused(capsys, map_path, dataset, tmp_path):
    """eval exits 3 with a one-line error and writes no report."""
    capsys.readouterr()
    report = tmp_path / "refused.assoc.jsonl"
    assert run_cli("eval", map_path, dataset, "-o", report) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not report.exists()
    return err


class TestEvalProvenance:
    def test_run_records_dataset_digest(self, tmp_path):
        dataset = single_object_dataset_file(tmp_path)
        map_path = tmp_path / "map.assoc.jsonl"
        run_cli("run", dataset, "-o", map_path)
        manifest, _, _ = read_map(map_path)
        assert manifest["dataset_sha256"] == hashlib.sha256(dataset.read_bytes()).hexdigest()

    def test_map_of_another_dataset_exits_3(self, tmp_path, capsys):
        quick = tmp_path / "quick.assoc.jsonl"
        desk = tmp_path / "desk.assoc.jsonl"
        run_cli("synth", "--preset", "aisle_quick", "--seed", 0, "-o", quick)
        run_cli("synth", "--preset", "office_desk", "--seed", 0, "-o", desk)
        map_path = tmp_path / "map.assoc.jsonl"
        assert run_cli("run", quick, "-o", map_path) == 0
        assert_refused(capsys, map_path, desk, tmp_path)

    def test_map_without_dataset_digest_exits_3(self, tmp_path, capsys):
        dataset = single_object_dataset_file(tmp_path)
        map_path = tmp_path / "map.assoc.jsonl"
        run_cli("run", dataset, "-o", map_path)
        first, *rest = map_path.read_text().splitlines()
        manifest = json.loads(first)["payload"]["run"]
        del manifest["dataset_sha256"]
        map_path.write_text("\n".join([encode_record("config", {"run": manifest})] + rest) + "\n")
        assert_refused(capsys, map_path, dataset, tmp_path)

    def test_unknown_measurement_id_exits_3(self, tmp_path, capsys):
        dataset = single_object_dataset_file(tmp_path)
        map_path = tmp_path / "map.assoc.jsonl"
        run_cli("run", dataset, "-o", map_path)
        _, landmarks, _ = read_map(map_path)
        # the landmark lists the measurement, so the map reads and eval refuses it
        lines = map_path.read_text().splitlines()
        landmark = json.loads(lines[1])
        landmark["payload"]["measurement_ids"].append(999)
        lines[1] = json.dumps(landmark)
        record = {"measurement_id": 999, "landmark_id": landmarks[0].landmark_id}
        lines.append(encode_record("assignment", record))
        map_path.write_text("\n".join(lines) + "\n")
        read_map(map_path)
        assert "not in" in assert_refused(capsys, map_path, dataset, tmp_path)

    @pytest.mark.parametrize("landmark_id", [999, None], ids=["unknown", "not-listing"])
    def test_an_assignment_outside_its_landmark_exits_3(self, tmp_path, capsys, landmark_id):
        quick = tmp_path / "quick.assoc.jsonl"
        run_cli("synth", "--preset", "aisle_quick", "--seed", 0, "-o", quick)
        map_path = tmp_path / "map.assoc.jsonl"
        assert run_cli("run", quick, "-o", map_path) == 0
        _, landmarks, assignments = read_map(map_path)
        if landmark_id is None:
            # another landmark than the one whose record lists the measurement
            held = assignments[min(assignments)]
            landmark_id = next(lm.landmark_id for lm in landmarks if lm.landmark_id != held)
        line_no = edit_first_record(map_path, "assignment", "landmark_id", landmark_id)
        err = assert_refused(capsys, map_path, quick, tmp_path)
        assert err.startswith(f"error: line {line_no}: ")


class TestSecondConfigRecord:
    """A config record anywhere but line 1 exits 3 at its line.

    So no later record replaces the first, and line 1, which eval hashes as a
    map's manifest, is the manifest the map was read with.
    """

    def test_dataset_with_two_configs_exits_3(self, tmp_path, capsys):
        quick = tmp_path / "quick.assoc.jsonl"
        run_cli("synth", "--preset", "aisle_quick", "--seed", 0, "-o", quick)
        lines = quick.read_text().splitlines()
        lines.append(lines[0].replace('"seed":0}', '"seed":5}'))
        quick.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        map_path = tmp_path / "map.assoc.jsonl"
        assert run_cli("run", quick, "-o", map_path) == 3
        err = capsys.readouterr().err
        assert err == f"error: line {len(lines)}: duplicate config record\n"
        assert not map_path.exists()

    def test_map_with_two_configs_exits_3(self, tmp_path, capsys):
        dataset = single_object_dataset_file(tmp_path)
        map_path = tmp_path / "map.assoc.jsonl"
        run_cli("run", dataset, "-o", map_path)
        lines = map_path.read_text().splitlines()
        lines.insert(1, lines[0])
        map_path.write_text("\n".join(lines) + "\n")
        err = assert_refused(capsys, map_path, dataset, tmp_path)
        assert err == "error: line 2: duplicate config record\n"

    def test_map_whose_config_is_moved_to_the_end_exits_3(self, tmp_path, capsys):
        dataset = single_object_dataset_file(tmp_path)
        map_path = tmp_path / "map.assoc.jsonl"
        run_cli("run", dataset, "-o", map_path)
        lines = map_path.read_text().splitlines()
        lines.append(lines.pop(0))
        map_path.write_text("\n".join(lines) + "\n")
        err = assert_refused(capsys, map_path, dataset, tmp_path)
        assert err == f"error: line {len(lines)}: config must be line 1\n"

    def test_dataset_whose_config_is_moved_to_the_end_exits_3(self, tmp_path, capsys):
        dataset = single_object_dataset_file(tmp_path)
        lines = dataset.read_text().splitlines()
        lines.append(lines.pop(0))
        dataset.write_text("\n".join(lines) + "\n")
        map_path = tmp_path / "map.assoc.jsonl"
        assert run_cli("run", dataset, "-o", map_path) == 3
        assert capsys.readouterr().err == f"error: line {len(lines)}: config must be line 1\n"
        assert not map_path.exists()


def edit_first_record(path, kind, key, value) -> int:
    """Set one payload field of the first record of a kind; return its line number.

    Kind ``measurement`` edits the first measurement of the first keyframe record.
    """
    lines = path.read_text().splitlines()
    record_kind = "keyframe" if kind == "measurement" else kind
    line_no = next(i for i, line in enumerate(lines, 1) if json.loads(line)["kind"] == record_kind)
    record = json.loads(lines[line_no - 1])
    fields = record["payload"]["measurements"][0] if kind == "measurement" else record["payload"]
    fields[key] = value
    lines[line_no - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return line_no


class TestMalformedFields:
    """A field of the wrong type or value exits 3 with one line naming the record's line."""

    @pytest.mark.parametrize(
        ("kind", "key", "value"),
        [
            ("assignment", "landmark_id", "x"),
            ("assignment", "measurement_id", math.inf),
            ("landmark", "tracks", 5),
            ("landmark", "landmark_id", "abc"),
            ("landmark", "measurement_ids", 5),
            ("config", "run", [1, 2]),
            # a bool or a fractional number is no id: it is refused, not cast
            ("landmark", "landmark_id", True),
            ("landmark", "measurement_ids", [1.5]),
            ("assignment", "measurement_id", 1.5),
            ("assignment", "landmark_id", True),
            # a track is a (group, track) pair of integer ids
            ("landmark", "tracks", [[True, 1.5], "ab"]),
            ("landmark", "tracks", [[0, 0, 0]]),
            ("landmark", "tracks", ["ab"]),
            # a number is no class label
            ("landmark", "class_label", 5),
            # a pose is an object or null; "" or [] is no "no pose"
            ("landmark", "refined_pose", ""),
            ("landmark", "refined_pose", []),
        ],
    )
    def test_malformed_map_field_exits_3(self, tmp_path, capsys, kind, key, value):
        dataset = single_object_dataset_file(tmp_path)
        map_path = tmp_path / "map.assoc.jsonl"
        run_cli("run", dataset, "-o", map_path)
        line_no = edit_first_record(map_path, kind, key, value)
        err = assert_refused(capsys, map_path, dataset, tmp_path)
        assert err.startswith(f"error: line {line_no}: ")

    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize(
        ("kind", "key", "value"),
        [
            ("gt_landmark", "gt_landmark_id", "x"),
            ("gt_landmark", "pose", 5),
            ("keyframe", "timestamp", [1]),
            ("keyframe", "keyframe_id", math.inf),
            # a bool or a fractional number is no id: it is refused, not cast
            ("gt_landmark", "gt_landmark_id", True),
            ("gt_landmark", "gt_landmark_id", 1.5),
            ("keyframe", "keyframe_id", 0.5),
            ("measurement", "measurement_id", 1.5),
            ("measurement", "measurement_id", True),
            ("measurement", "keyframe_id", 0.5),
            ("measurement", "gt_landmark_id", True),
            ("measurement", "gt_landmark_id", 1.5),
            # a value of the wrong JSON type is refused, not cast
            ("measurement", "class_label", 5),
            ("gt_landmark", "class_label", 5),
            ("keyframe", "timestamp", True),
            ("measurement", "bbox", [True, 10.0, 50.0, 50.0]),
            ("measurement", "pose", {"position": [True, 0, 1.0], "quaternion": [1, 0, 0, 0]}),
            ("measurement", "appearance", [True] + [0] * 7),
        ],
    )
    def test_malformed_dataset_field_exits_3(self, tmp_path, capsys, command, kind, key, value):
        dataset = single_object_dataset_file(tmp_path)
        map_path = tmp_path / "map.assoc.jsonl"
        run_cli("run", dataset, "-o", map_path)
        line_no = edit_first_record(dataset, kind, key, value)
        capsys.readouterr()
        out = tmp_path / "out.assoc.jsonl"
        args = ("run", dataset) if command == "run" else ("eval", map_path, dataset)
        assert run_cli(*args, "-o", out) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line_no}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()


class TestCompare:
    def test_reports_delta_and_per_seed_rows(self, tmp_path, capsys):
        dataset = single_object_dataset_file(tmp_path, n=9)
        assert run_cli("compare", dataset, "--seeds", 2) == 0
        out = capsys.readouterr().out
        assert "hierarchical" in out and "flat" in out
        assert "accuracy delta" in out
        assert out.count("hierarchical") >= 3  # 2 per-seed rows + mean row

    def test_single_seed_mode(self, tmp_path, capsys):
        dataset = single_object_dataset_file(tmp_path, n=6)
        assert run_cli("compare", dataset, "--seeds", 1) == 0
        assert "single seed" in capsys.readouterr().out

    def test_zero_seeds_rejected(self, tmp_path):
        dataset = single_object_dataset_file(tmp_path, n=6)
        assert run_cli("compare", dataset, "--seeds", 0) == 2
