"""Tests of the benchmark itself, on tiny versions of its workloads."""

import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import objassoc  # noqa: E402
from objassoc import association, records  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
from tracing import Hook, Recorder, installed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "aisle_long": {"n_pairs": 2},
    "dwell_flat": {"n_pairs": 1, "n_scenes": 1},
    "preset_sweep": {"n_seeds": 1, "presets": ("aisle_quick", "office_desk")},
}


def tiny_run(tmp_path, workload, trace=False, seed=3):
    return bench.run_benchmark(workload, seed, 0, trace, tmp_path, sizes=TINY[workload])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_end_to_end_metric_is_reported_with_its_unit(tmp_path, workload):
    result, detail = tiny_run(tmp_path, workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        bench.declared_metrics("end_to_end")
    assert set(bench.end_to_end([], 1.0)) == set(bench.declared_metrics("end_to_end"))
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())
    assert detail["failed_ratio"] == 0.0
    assert set(detail["digests"]["maps"]) == {job.name for job in
                                              WORKLOADS[workload](3, **TINY[workload]).jobs}


def test_every_per_layer_metric_is_measured(tmp_path):
    workload = WORKLOADS["preset_sweep"](3, **TINY["preset_sweep"])
    recorder = Recorder()
    with installed(recorder) as missing:
        bench.set_up(workload, tmp_path, recorder)
        bench.run_pass(workload, tmp_path, 0, {}, recorder)
    assert missing == []
    measured = set(tracing.layer_metrics([recorder])) | {"trace.overhead_s", "trace.spans",
                                                        "trace.missing_hooks"}
    assert set(bench.declared_metrics("per_layer")) <= measured

    result, detail = tiny_run(tmp_path, "preset_sweep", trace=True)
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        bench.declared_metrics("per_layer")
    assert detail["tracing"]["missing_hooks"] == []
    assert detail["passes"]["traced"] == detail["passes"]["untraced"] == 1
    assert result["metrics"]["mixture.likelihood_calls"]["value"] > 0


def test_visit_ratio_orders_groups_by_landmark_count():
    def group(start, seconds, landmarks, visits=1):
        return tracing.Span(0, "association.gibbs_assign_group", start, start + seconds, None,
                            "run", seconds, {"visits": visits, "landmarks": landmarks})

    # Started late but with the smallest map: it belongs to the first quarter.
    spans = [group(0.0, 0.004, 5), group(1.0, 0.001, 1), group(2.0, 0.002, 3), group(3.0, 0.002, 4)]
    assert tracing.visit_ms_q4_over_q1(spans) == pytest.approx(4.0)


def test_self_times_are_non_negative_and_sum_to_the_root_span(tmp_path):
    workload = WORKLOADS["aisle_long"](0, n_pairs=2)
    bench.set_up(workload, tmp_path)
    recorder = Recorder()
    with installed(recorder) as missing:
        outcomes = bench.run_pass(workload, tmp_path, 0, {}, recorder)
    assert missing == [] and not any(o.problems for o in outcomes)
    roots = [s for s in recorder.spans if s.parent is None]
    assert [r.name for r in roots] == ["bench.job"]
    assert all(s.self_s >= 0.0 for s in recorder.spans)
    total = sum(s.self_s for s in recorder.spans)
    assert total == pytest.approx(roots[0].end - roots[0].start, rel=1e-9)
    assert len({s.span_id for s in recorder.spans}) == len(recorder.spans)


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    recorder = Recorder(clock=lambda: next(ticks))
    with recorder.span("root"):
        with recorder.span("child"):
            pass
        with recorder.span("child"):
            pass
    child_a, child_b, root = recorder.spans
    assert (child_a.self_s, child_b.self_s, root.self_s) == (2.0, 0.5, 7.5)
    assert child_a.parent == child_b.parent == root.span_id and root.parent is None


def test_wrappers_are_restored_and_missing_hooks_reported():
    run = association.run_association
    attach = association.LandmarkMap.__dict__["attach"]
    hooks = tracing.HOOKS + (Hook("association", "no_such_function"), Hook("no_such_module", "f"))
    with installed(Recorder(), hooks) as missing:
        assert association.run_association is not run
        assert objassoc.run_association is association.run_association
        assert association.LandmarkMap.__dict__["attach"] is not attach
    assert association.run_association is run and objassoc.run_association is run
    assert association.LandmarkMap.__dict__["attach"] is attach
    assert missing == ["association.no_such_function", "no_such_module.f"]


def test_corrupted_assignment_table_is_counted_as_a_failed_run(tmp_path, monkeypatch):
    real = association.run_association

    def drops_one_assignment(*args, **kwargs):
        result = real(*args, **kwargs)
        table = dict(result.assignments)
        del table[min(table)]
        return replace(result, assignments=table)

    monkeypatch.setattr(association, "run_association", drops_one_assignment)
    result, detail = tiny_run(tmp_path, "aisle_long")
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)
    assert "unassigned" in detail["failures"][0]
    assert set(result["metrics"]) == set(bench.declared_metrics("end_to_end"))


def test_repeated_run_with_different_map_bytes_fails(tmp_path, monkeypatch):
    real = records.write_map

    def marks_repeat(landmarks, assignments, manifest, path):
        if ".repeat." in Path(path).name:
            manifest = dict(manifest, repeat=True)
        real(landmarks, assignments, manifest, path)

    monkeypatch.setattr(records, "write_map", marks_repeat)
    result, detail = tiny_run(tmp_path, "preset_sweep")
    assert (result["failed"], result["correct"]) == (1, False)
    assert "twice" in detail["failures"][0]


def test_tail_latency_has_ten_samples_beyond_it():
    assert bench.tail_latency([float(v) for v in range(10)]) is None
    tail = bench.tail_latency([float(v) for v in range(20, 0, -1)])
    assert tail == {"value_ms": 10.0, "percentile": 50.0, "samples": 20}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "aisle_long",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
