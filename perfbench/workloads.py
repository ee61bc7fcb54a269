"""The benchmark's workloads, built from the public scenario and config API.

Each workload is a list of datasets to generate in set-up and a list of
jobs, one pipeline run per job, to time. The seed given to the benchmark
fixes every dataset seed and the association seed, so the same seed gives
the same inputs and the same map bytes.

Why each workload exists (README.md has the layer -> metric table):

- ``aisle_long``: 16 door pairs along one wall, hierarchical association.
  The map grows to 32 landmarks, so cost that scales with map size
  (likelihoods against every landmark) dominates. Map-size optimisations
  show their gain here.
- ``dwell_flat``: three scenes, each a slow camera past 2 door pairs,
  with the flat per-keyframe baseline. Every track holds one measurement
  while landmarks hold many, so pose refinement and mixture rebuilds
  dominate and map size matters little. How many landmarks the baseline
  opens, and so the cost of a scene, changes from seed to seed; three
  scenes per seed average that out.
- ``preset_sweep``: the paper's experiment traffic (``compare``): three
  presets x ten dataset seeds x {hierarchical, flat}. Maps are small, so
  fixed per-call costs, record I/O and evaluation dominate; it is the
  bypass workload for any map-size optimisation.

A pass of each takes a few seconds, so a run of 40 s holds several
passes and reports their median; one pass of a longer scene would leave a
single sample exposed to the machine's slow spells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from objassoc import CameraPath, LandmarkSpec, RunConfig, ScenarioConfig, preset
from objassoc.core import canonical_quaternion, quat_from_axis_angle

PAIR_SPACING_M = 5.0
FIRST_PAIR_X_M = 6.0
PATH_TAIL_M = 4.0
PRESETS = ("aisle_slow", "aisle_quick", "office_desk")


@dataclass(frozen=True)
class Job:
    """One pipeline run: read ``dataset``, associate with ``config``, write, evaluate."""

    name: str
    dataset: str
    config: RunConfig
    variant: str


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: dict[str, ScenarioConfig]
    jobs: tuple[Job, ...]
    # A job run a second time at the end of every pass; its map must be
    # byte-identical to the first run's.
    repeat_of: Optional[str] = None


def door_aisle(n_pairs: int, speed_factor: float, seed: int) -> ScenarioConfig:
    """``aisle_slow``'s noise and camera with ``n_pairs`` door pairs 5 m apart.

    Each pair is its own similarity group, as in the preset, so the
    appearance dimension grows with the number of pairs.
    """
    base = preset("aisle_slow")
    facing = tuple(
        canonical_quaternion(quat_from_axis_angle([0.0, 0.0, 1.0], -math.pi / 2.0))
    )
    landmarks = tuple(
        LandmarkSpec(
            class_label="door",
            position=(FIRST_PAIR_X_M + pair * PAIR_SPACING_M + k * base.confusable_gap, 1.6, 1.0),
            orientation=facing,
            similarity_group=pair,
        )
        for pair in range(n_pairs)
        for k in range(2)
    )
    end_x = FIRST_PAIR_X_M + (n_pairs - 1) * PAIR_SPACING_M + PATH_TAIL_M
    start, end = base.camera.waypoints
    return replace(
        base,
        landmarks=landmarks,
        camera=CameraPath(
            waypoints=(start, (end_x, end[1], end[2])), speed_factor=speed_factor
        ),
        appearance_dim=max(base.appearance_dim, n_pairs),
        seed=seed,
    )


def aisle_long(seed: int, n_pairs: int = 16) -> Workload:
    name = f"aisle{n_pairs}-s{seed}"
    job = Job(f"{name}-hier", name, RunConfig(assoc_seed=seed), "hierarchical")
    return Workload("aisle_long", {name: door_aisle(n_pairs, 1.0, seed)}, (job,))


def dwell_flat(seed: int, n_pairs: int = 2, n_scenes: int = 3) -> Workload:
    datasets: dict[str, ScenarioConfig] = {}
    jobs: list[Job] = []
    config = RunConfig(assoc_seed=seed).flat()
    for k in range(n_scenes):
        dataset_seed = seed * n_scenes + k
        name = f"dwell{n_pairs}-s{dataset_seed}"
        datasets[name] = door_aisle(n_pairs, 0.3, dataset_seed)
        jobs.append(Job(f"{name}-flat", name, config, "flat"))
    return Workload("dwell_flat", datasets, tuple(jobs))


def preset_sweep(seed: int, n_seeds: int = 10, presets: tuple[str, ...] = PRESETS) -> Workload:
    datasets: dict[str, ScenarioConfig] = {}
    jobs: list[Job] = []
    config = RunConfig(assoc_seed=seed)
    for name in presets:
        for k in range(n_seeds):
            dataset_seed = seed * n_seeds + k
            stem = f"{name}-s{dataset_seed}"
            datasets[stem] = replace(preset(name), seed=dataset_seed)
            jobs.append(Job(f"{stem}-hier", stem, config, "hierarchical"))
            jobs.append(Job(f"{stem}-flat", stem, config.flat(), "flat"))
    return Workload("preset_sweep", datasets, tuple(jobs), repeat_of=jobs[0].name)


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "aisle_long": aisle_long,
    "dwell_flat": dwell_flat,
    "preset_sweep": preset_sweep,
}
