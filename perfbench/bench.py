"""Benchmark core: set-up, timed passes, output checks and metrics.

A run repeats passes over the workload's jobs until ``seconds`` would be
exceeded; it always makes at least one pass. Before every pass it sets
the workload up several times (generate and write every dataset), so the
set-up samples, like the passes, are spread over the whole run. A job
times read dataset -> associate -> write map -> evaluate, then checks the
outputs and hashes the map outside the timed part. End-to-end metrics are
medians over the set-ups and the untraced passes. With tracing on, each
untraced pass is followed by a traced one, and the per-layer metrics are
medians over the traced passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from objassoc import association, metrics, records, synth
from objassoc.config import config_to_mapping

from checks import check_outputs
from tracing import Recorder, installed, layer_metrics, write_spans
from workloads import WORKLOADS, Job, Workload

SETUP_BLOCK_S = 0.5  # generate-and-write steps repeat before every pass for this long
TAIL_MIN_BEYOND = 10
MAX_LISTED_FAILURES = 10

BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(BENCHMARK_FILE, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass
class JobOutcome:
    job: Job
    run_id: str
    repeat: bool = False
    problems: list[str] = field(default_factory=list)
    timed: bool = False
    latency_s: float = 0.0
    assoc_s: float = 0.0
    measurements: int = 0
    accuracy: float = 0.0
    count_error: int = 0
    pose_rmse_m: Optional[float] = None
    digest: str = ""


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _dataset_path(workdir: Path, stem: str) -> Path:
    return workdir / f"{stem}.assoc.jsonl"


def _root_span(recorder: Optional[Recorder], name: str, run_id: str):
    if recorder is None:
        return contextlib.nullcontext()
    recorder.run_id = run_id
    return recorder.span(name)


def set_up(workload: Workload, workdir: Path, recorder: Optional[Recorder] = None):
    """Generate and write every dataset; returns (seconds, digests, sizes)."""
    with _root_span(recorder, "bench.setup", "setup"):
        start = time.perf_counter()
        sizes = {}
        for stem, scenario in workload.datasets.items():
            dataset = synth.generate(scenario)
            records.write_dataset(dataset, _dataset_path(workdir, stem))
            sizes[stem] = {"measurements": dataset.measurement_count, "keyframes": len(dataset.keyframes)}
        elapsed = time.perf_counter() - start
    digests = {stem: sha256_of(_dataset_path(workdir, stem)) for stem in workload.datasets}
    return elapsed, digests, sizes


def run_job(job: Job, workdir: Path, run_id: str, repeat: bool = False,
            recorder: Optional[Recorder] = None) -> JobOutcome:
    """One pipeline run. Any exception or failed check marks it failed; none escapes."""
    outcome = JobOutcome(job, run_id, repeat)
    dataset_path = _dataset_path(workdir, job.dataset)
    map_path = workdir / f"{job.name}{'.repeat' if repeat else ''}.map.assoc.jsonl"
    config = job.config
    try:
        with _root_span(recorder, "bench.job", run_id):
            start = time.perf_counter()
            dataset = records.read_dataset(dataset_path)
            assoc_start = time.perf_counter()
            result = association.run_association(
                dataset.keyframes,
                group_size=config.group_size,
                group_overlap=config.group_overlap,
                tracker_params=config.tracker_params(),
                assoc_params=config.assoc_params(),
                base_cov=config.base_cov(),
                refine_params=config.refine_params(),
            )
            assoc_end = time.perf_counter()
            manifest = dict(
                config_to_mapping(config),
                dataset=dataset_path.name,
                dataset_seed=dataset.config.seed if dataset.config else None,
            )
            records.write_map(result.landmarks, result.assignments, manifest, map_path)
            report = metrics.evaluate(result.landmarks, result.assignments, dataset)
            end = time.perf_counter()
        outcome.timed = True
        outcome.latency_s = end - start
        outcome.assoc_s = assoc_end - assoc_start
        outcome.measurements = dataset.measurement_count
        outcome.accuracy = report.association_accuracy
        outcome.count_error = report.count_error
        outcome.pose_rmse_m = report.landmark_pose_rmse_pos
        outcome.problems.extend(check_outputs(dataset, result, map_path))
        outcome.digest = sha256_of(map_path)
    except Exception as exc:  # a failed run is counted, never aborts the workload
        where = traceback.extract_tb(exc.__traceback__)[-1]
        outcome.problems.append(
            f"{type(exc).__name__} in {where.name} ({Path(where.filename).name}:{where.lineno}): {exc}"
        )
    return outcome


def run_pass(workload: Workload, workdir: Path, index: int, first_digests: dict[str, str],
             recorder: Optional[Recorder] = None) -> list[JobOutcome]:
    """Every job once, then the workload's repeat job; map bytes must not change."""
    outcomes = []
    for job in workload.jobs:
        outcome = run_job(job, workdir, f"p{index}/{job.name}", recorder=recorder)
        if outcome.digest:
            expected = first_digests.setdefault(job.name, outcome.digest)
            if outcome.digest != expected:
                outcome.problems.append("map bytes differ from the first pass")
        outcomes.append(outcome)
    if workload.repeat_of is not None:
        first = next(o for o in outcomes if o.job.name == workload.repeat_of)
        again = run_job(first.job, workdir, f"p{index}/{first.job.name}/repeat",
                        repeat=True, recorder=recorder)
        if first.digest and again.digest and again.digest != first.digest:
            again.problems.append("running the same dataset twice wrote different map bytes")
        outcomes.append(again)
    return outcomes


def _timed(outcomes: list[JobOutcome]) -> list[JobOutcome]:
    return [o for o in outcomes if o.timed]


def _per_job(passes: list[list[JobOutcome]]) -> dict[tuple[str, bool], list[JobOutcome]]:
    runs: dict[tuple[str, bool], list[JobOutcome]] = {}
    for outcomes in passes:
        for o in _timed(outcomes):
            runs.setdefault((o.job.name, o.repeat), []).append(o)
    return runs


def _typical_pass(passes: list[list[JobOutcome]], value) -> float:
    """Sum over jobs of the job's median ``value(outcome)`` across passes.

    Per-job medians keep a slow spell of the machine that spans parts of two
    passes out of the result, where a median of pass totals would not.
    """
    return sum(_median(value(o) for o in runs) for runs in _per_job(passes).values())


def _wall_s(passes: list[list[JobOutcome]]) -> float:
    return _typical_pass(passes, lambda o: o.latency_s)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def tail_latency(latencies_ms: list[float]) -> Optional[dict]:
    """The highest percentile with at least ten samples beyond it, or None when too few."""
    n = len(latencies_ms)
    if n <= TAIL_MIN_BEYOND:
        return None
    ordered = sorted(latencies_ms)
    return {
        "value_ms": ordered[n - TAIL_MIN_BEYOND - 1],
        "percentile": 100.0 * (n - TAIL_MIN_BEYOND) / n,
        "samples": n,
    }


def quality(outcomes: list[JobOutcome]) -> dict:
    """Deterministic result quality of one pass; the repeat run is left out."""
    runs = [o for o in _timed(outcomes) if not o.repeat]
    hier = [o.accuracy for o in runs if o.job.variant == "hierarchical"]
    flat = [o.accuracy for o in runs if o.job.variant == "flat"]
    return {
        "accuracy_pct": _mean(o.accuracy for o in runs),
        "count_error": _mean(abs(o.count_error) for o in runs),
        "pose_rmse_m": _mean(o.pose_rmse_m for o in runs),
        "hier_flat_delta_pts": _mean(hier) - _mean(flat) if hier and flat else None,
    }


def end_to_end(passes: list[list[JobOutcome]], setup_s: float) -> dict[str, float]:
    measured = sum(runs[0].measurements for runs in _per_job(passes).values())
    return {
        "wall_s": _wall_s(passes),
        "ms_per_measurement": 1000.0 * _typical_pass(passes, lambda o: o.assoc_s) / measured
        if measured else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_settings": {
            k: v for k, v in sorted(os.environ.items())
            if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"
        },
    }


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool, out_dir,
                  import_s: float = 0.0, sizes: Optional[dict] = None) -> tuple[dict, dict]:
    """Run one workload; returns (result, detail). ``sizes`` shrinks a workload for tests."""
    workload = WORKLOADS[workload_name](seed, **(sizes or {}))
    out_dir = Path(out_dir)
    workdir = out_dir / f"work-{workload_name}-s{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, out_dir, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path,
         workdir: Path, import_s: float) -> tuple[dict, dict]:
    setup_blocks: list[list[float]] = []
    dataset_digests: dict[str, str] = {}
    problems: list[str] = []

    def set_up_repeatedly() -> dict:
        nonlocal dataset_digests
        block: list[float] = []
        while sum(block) < SETUP_BLOCK_S:
            elapsed, digests, sizes = set_up(workload, workdir)
            block.append(elapsed)
            if dataset_digests and digests != dataset_digests:
                problems.append("setup: dataset bytes differ between set-ups")
            dataset_digests = digests
        setup_blocks.append(block)
        return sizes

    recorders: list[Recorder] = []
    missing: list[str] = []
    if trace:
        recorders.append(Recorder())
        with installed(recorders[0]) as missing:
            set_up(workload, workdir, recorders[0])

    untraced: list[list[JobOutcome]] = []
    traced: list[list[JobOutcome]] = []
    first_digests: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        dataset_sizes = set_up_repeatedly()
        untraced.append(run_pass(workload, workdir, len(untraced) + len(traced), first_digests))
        if trace:
            recorder = Recorder(first_id=recorders[-1].next_id)
            with installed(recorder):
                traced.append(run_pass(workload, workdir, len(untraced) + len(traced),
                                       first_digests, recorder))
            recorders.append(recorder)
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > seconds:
            break

    outcomes = [o for p in untraced + traced for o in p]
    failed = [o for o in outcomes if o.problems]
    attempted = len(outcomes)
    problems += [f"{o.run_id}: {o.problems[0]}" for o in failed]

    if trace:
        units = declared_metrics("per_layer")
        per_pass = [layer_metrics([recorders[0], r]) for r in recorders[1:]]
        # A counter whose hook is missing reads 0; the hook is listed in the detail line.
        values = {name: _median(m.get(name, 0.0) for m in per_pass) for name in units}
        values["trace.overhead_s"] = _wall_s(traced) - _wall_s(untraced)
        values["trace.spans"] = _median(len(r.spans) for r in recorders[1:])
        values["trace.missing_hooks"] = len(missing)
    else:
        units = declared_metrics("end_to_end")
        values = end_to_end(untraced, _median(_mean(block) for block in setup_blocks))

    latencies = [1000.0 * o.latency_s for p in untraced for o in _timed(p)]
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_info(),
        "inputs": {
            "datasets": len(dataset_sizes),
            "runs_per_pass": len(untraced[0]),
            "measurements": sum(s["measurements"] for s in dataset_sizes.values()),
            "keyframes": sum(s["keyframes"] for s in dataset_sizes.values()),
            "per_dataset": dataset_sizes,
        },
        "setup": {"import_s": import_s, "generate_write_s": setup_blocks},
        "passes": {
            "untraced": len(untraced),
            "traced": len(traced),
            "wall_s": [_wall_s([p]) for p in untraced],
            "traced_wall_s": [_wall_s([p]) for p in traced],
        },
        "quality": quality(untraced[0]),
        "run_ms_p50": _median(latencies),
        "run_ms_tail": tail_latency(latencies),
        "failed_ratio": len(failed) / attempted,
        "failures": problems[:MAX_LISTED_FAILURES],
        "digests": {
            "datasets": dataset_digests,
            "maps": {name: first_digests[name] for name in sorted(first_digests)},
        },
    }
    if trace:
        spans_path = out_dir / f"spans-{workload.name}-s{seed}.jsonl.gz"
        detail["tracing"] = {
            "missing_hooks": missing,
            "spans_file": str(spans_path),
            "spans_written": write_spans(spans_path, recorders),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
    return result, detail
