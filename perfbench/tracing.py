"""Per-layer spans and counters recorded from outside the program.

For a traced pass, :func:`installed` replaces public functions of the
``objassoc`` layer modules with wrappers, in this process only, and puts
the originals back afterwards. A wrapper records a span (name, start,
end, parent span, run id) and updates counters from the call's arguments
and result. Spans stay in memory until the run ends.

A function is rebound in every ``objassoc`` module that imported it by
name, because callers look it up in their own module's namespace. A hook
whose target no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "objassoc"


@dataclass(slots=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    self_s: float
    attrs: Optional[dict]


class Recorder:
    """Spans and counters of one traced pass. Self time is duration minus child spans."""

    def __init__(self, first_id: int = 0, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._open: list[list] = []  # [span_id, name, start, child_s, attrs]
        self._next_id = first_id

    @property
    def next_id(self) -> int:
        """First span id free for another recorder of the same run."""
        return self._next_id

    def enter(self, name: str, attrs: Optional[dict] = None) -> list:
        frame = [self._next_id, name, self.clock(), 0.0, attrs]
        self._next_id += 1
        self._open.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        if self._open.pop() is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        duration = end - frame[2]
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            Span(frame[0], frame[1], frame[2], end, parent[0] if parent else None,
                 self.run_id, duration - frame[3], frame[4])
        )

    @contextmanager
    def span(self, name: str, **attrs):
        frame = self.enter(name, attrs or None)
        try:
            yield
        finally:
            self.exit(frame)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


# Counter updates, called with (counts, args, kwargs, result) after each call.

def _bytes_read(counts, args, kwargs, result):
    counts["records.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _bytes_written_at(index):
    def count(counts, args, kwargs, result):
        counts["records.bytes_written"] += os.path.getsize(_arg(args, kwargs, index, "path"))
    return count


def _calls(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1
    return count


def _result_len(name):
    def count(counts, args, kwargs, result):
        counts[name] += len(result)
    return count


def _landmarks_final(counts, args, kwargs, result):
    counts["association.landmarks_final"] += len(result.landmarks)


def _gibbs_attrs(args, kwargs):
    state = _arg(args, kwargs, 0, "state")
    tracks = _arg(args, kwargs, 1, "tracks")
    params = _arg(args, kwargs, 2, "params")
    return {"visits": len(tracks) * params.gibbs_sweeps, "landmarks": len(state.landmarks)}


def _weights(counts, args, kwargs, result):
    counts["association.visits"] += 1
    counts["association.candidates"] += len(_arg(args, kwargs, 1, "landmarks"))
    counts["association.weights"] += len(result.landmark_weights)
    counts["association.weights_nonzero"] += sum(1 for w in result.landmark_weights if w > 0.0)


def _attach(counts, args, kwargs, result):
    counts["association.attach_calls"] += 1
    if _arg(args, kwargs, 2, "landmark_id") is None:
        counts["association.new_landmarks"] += 1


def _build(counts, args, kwargs, result):
    counts["mixture.components_built"] += len(_arg(args, kwargs, 0, "measurements"))


def _likelihood(counts, args, kwargs, result):
    candidate = _arg(args, kwargs, 0, "candidate")
    target = _arg(args, kwargs, 1, "target")
    counts["mixture.likelihood_calls"] += 1
    counts["mixture.density_evals"] += (
        len(getattr(candidate, "measurements", candidate)) * len(target.components)
    )


def _refine(counts, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "landmark").measurements)
    counts["refine.calls"] += 1
    counts["refine.pairs_scored"] += n * (n - 1)


@dataclass(frozen=True)
class Hook:
    module: str  # layer module under the package
    attr: str  # "function" or "Class.method"
    span: bool = True  # False: count calls only, no span
    attrs: Optional[Callable] = None  # (args, kwargs) -> span attributes, at entry
    count: Optional[Callable] = None  # (counts, args, kwargs, result), after the call

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


HOOKS = (
    Hook("synth", "generate"),
    Hook("records", "read_dataset", count=_bytes_read),
    Hook("records", "write_dataset", count=_bytes_written_at(1)),
    Hook("records", "write_map", count=_bytes_written_at(3)),
    Hook("grouping", "form_groups", count=_result_len("grouping.groups")),
    Hook("tracking", "associate_within_group", count=_result_len("tracking.tracks")),
    Hook("tracking", "track_cost", span=False, count=_calls("tracking.track_cost_calls")),
    Hook("tracking", "solve_assignment", span=False, count=_calls("tracking.hungarian_solves")),
    Hook("association", "run_association", count=_landmarks_final),
    Hook("association", "gibbs_assign_group", attrs=_gibbs_attrs),
    Hook("association", "association_weights", count=_weights),
    Hook("association", "LandmarkMap.attach", count=_attach),
    Hook("association", "LandmarkMap.detach"),
    Hook("mixture", "build_gmm", count=_build),
    Hook("mixture", "max_measurement_likelihood", count=_likelihood),
    Hook("refine", "refine_pose", count=_refine),
    Hook("metrics", "evaluate"),
)


def _wrap(recorder: Recorder, hook: Hook, fn: Callable) -> Callable:
    counts = recorder.counts
    if not hook.span:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook.count(counts, args, kwargs, result)
            return result
        return functools.wraps(fn)(counted)

    name = hook.name

    def traced(*args, **kwargs):
        frame = recorder.enter(name, hook.attrs(args, kwargs) if hook.attrs else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(frame)
        if hook.count is not None:
            hook.count(counts, args, kwargs, result)
        return result

    return functools.wraps(fn)(traced)


def _package_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


@contextmanager
def installed(recorder: Recorder, hooks=HOOKS):
    """Wrap every hook's target while the block runs; yields the missing hook names."""
    patches: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for hook in hooks:
            try:
                module = importlib.import_module(f"{PACKAGE}.{hook.module}")
            except ImportError:
                missing.append(hook.name)
                continue
            owner_name, _, attr = hook.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                missing.append(hook.name)
                continue
            wrapper = _wrap(recorder, hook, original)
            if owner_name:
                targets = [(owner, attr)]
            else:
                targets = [
                    (mod, key) for mod in _package_modules()
                    for key, value in list(vars(mod).items()) if value is original
                ]
            for target, key in targets:
                patches.append((target, key, original))
                setattr(target, key, wrapper)
        yield missing
    finally:
        for target, key, original in reversed(patches):
            setattr(target, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

# metric -> span names whose self time it sums
SELF_TIMES = {
    "mixture.likelihood_s": ("mixture.max_measurement_likelihood",),
    "association.weights_s": ("association.association_weights",),
    "mixture.build_s": ("mixture.build_gmm",),
    "association.rebuild_s": ("association.LandmarkMap.attach", "association.LandmarkMap.detach"),
    "refine.refine_s": ("refine.refine_pose",),
    "association.gibbs_s": ("association.gibbs_assign_group",),
    "association.run_s": ("association.run_association",),
    "tracking.associate_s": ("tracking.associate_within_group",),
    "grouping.form_groups_s": ("grouping.form_groups",),
    "records.read_dataset_s": ("records.read_dataset",),
    "records.write_map_s": ("records.write_map",),
    "records.write_dataset_s": ("records.write_dataset",),
    "metrics.evaluate_s": ("metrics.evaluate",),
    "synth.generate_s": ("synth.generate",),
}


def visit_ms_q4_over_q1(spans: list[Span]) -> float:
    """Mean ms per Gibbs visit as the map grows: the largest-map quarter over the smallest.

    Read from the ``gibbs_assign_group`` spans. Each run's groups are
    ordered by the landmark count at entry, then by start time; the ratio
    is the last quarter's mean ms per visit over the first quarter's, and
    the result is the median over runs. Groups with no tracks make no
    visits and are skipped.
    """
    by_run: dict[str, list[Span]] = {}
    for span in spans:
        if span.name == "association.gibbs_assign_group" and span.attrs["visits"] > 0:
            by_run.setdefault(span.run_id, []).append(span)
    ratios = []
    for groups in by_run.values():
        groups.sort(key=lambda s: (s.attrs["landmarks"], s.start))
        q = max(1, len(groups) // 4)
        ratios.append(_ms_per_visit(groups[-q:]) / _ms_per_visit(groups[:q]))
    return statistics.median(ratios) if ratios else 0.0


def _ms_per_visit(groups: list[Span]) -> float:
    return 1000.0 * sum(s.end - s.start for s in groups) / sum(s.attrs["visits"] for s in groups)


def layer_metrics(recorders: list[Recorder]) -> dict[str, float]:
    """Per-layer self times, counts and ratios over the recorders' spans and counters."""
    spans = [span for recorder in recorders for span in recorder.spans]
    counts: Counter = Counter()
    for recorder in recorders:
        counts.update(recorder.counts)
    self_s: Counter = Counter()
    for span in spans:
        self_s[span.name] += span.self_s
    out: dict[str, float] = {
        metric: sum(self_s[name] for name in names) for metric, names in SELF_TIMES.items()
    }
    out["association.run_association_s"] = sum(
        s.end - s.start for s in spans if s.name == "association.run_association"
    )
    out.update(counts)
    visits = counts["association.visits"]
    out["association.candidates_per_visit"] = counts["association.candidates"] / visits if visits else 0.0
    out["association.weights_nonzero_ratio"] = (
        counts["association.weights_nonzero"] / counts["association.weights"]
        if counts["association.weights"] else 0.0
    )
    out["association.visit_ms_q4_over_q1"] = visit_ms_q4_over_q1(spans)
    return out


def write_spans(path, recorders: list[Recorder]) -> int:
    """Write every span as one JSON line to a gzip file; returns the span count."""
    written = 0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for recorder in recorders:
            for s in recorder.spans:
                fh.write(json.dumps([s.span_id, s.name, s.start, s.end, s.parent,
                                     s.run_id, s.self_s, s.attrs]) + "\n")
                written += 1
    return written
