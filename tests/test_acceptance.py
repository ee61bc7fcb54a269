"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import time
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from objassoc.association import association_weights, run_association
from objassoc.cli import main as cli_main
from objassoc.config import RunConfig
from objassoc.grouping import form_groups
from objassoc.metrics import evaluate
from objassoc.mixture import LandmarkGMM, SharedCovariance
from objassoc.refine import pose_scores, select_reference_index
from objassoc.synth import generate, preset
from objassoc.tracking import FORBIDDEN_COST, solve_assignment

from conftest import ASSOC, REFINE, build_noisy_landmark, make_keyframe, make_measurement
from test_association import landmark_of, track_of
from test_grouping import documented_windows
from test_refine import oracle_argmin, oracle_score


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _run_variant(dataset, config: RunConfig):
    return run_association(
        dataset.keyframes,
        group_size=config.group_size,
        group_overlap=config.group_overlap,
        tracker_params=config.tracker_params(),
        assoc_params=config.assoc_params(),
        base_cov=config.base_cov(),
        refine_params=config.refine_params(),
    )


@pytest.fixture(scope="module")
def quick_experiment():
    """Hierarchical vs flat on the aisle_quick preset over ten dataset seeds."""
    config = RunConfig()
    started = time.monotonic()
    rows = []
    for seed in range(10):
        dataset = generate(replace(preset("aisle_quick"), seed=seed))
        hier = _run_variant(dataset, config.with_seed(seed))
        flat = _run_variant(dataset, config.flat().with_seed(seed))
        rows.append(
            {
                "dataset": dataset,
                "hier": hier,
                "flat": flat,
                "hier_report": evaluate(hier.landmarks, hier.assignments, dataset),
                "flat_report": evaluate(flat.landmarks, flat.assignments, dataset),
            }
        )
    elapsed = time.monotonic() - started
    return {"rows": rows, "elapsed_s": elapsed}


def test_hierarchical_vs_flat_trend(quick_experiment):
    rows = quick_experiment["rows"]
    hier_mean = np.mean([r["hier_report"].association_accuracy for r in rows])
    flat_mean = np.mean([r["flat_report"].association_accuracy for r in rows])
    delta = hier_mean - flat_mean
    elapsed = quick_experiment["elapsed_s"]
    _criterion(
        "hierarchical beats flat by >= 10 accuracy points on aisle_quick",
        delta >= 10.0 and elapsed <= 60.0,
        f"hier {hier_mean:.2f}% vs flat {flat_mean:.2f}%, delta {delta:.2f}, {elapsed:.1f}s",
    )


def test_object_count_fidelity(quick_experiment):
    rows = quick_experiment["rows"]
    gt_count = len(rows[0]["dataset"].gt_landmarks)
    hier_within_one = sum(
        1 for r in rows if abs(r["hier_report"].predicted_count - gt_count) <= 1
    )
    flat_mean_count = np.mean([r["flat_report"].predicted_count for r in rows])
    _criterion(
        "hierarchical count within +-1 of gt on >= 8/10 seeds and flat overcounts",
        hier_within_one >= 8 and flat_mean_count > gt_count,
        f"hier within +-1 on {hier_within_one}/10, flat mean {flat_mean_count:.1f} vs gt {gt_count}",
    )


def test_pose_refinement_benefit():
    rng = np.random.default_rng(42)
    params = REFINE
    refined_sq = []
    first_sq = []
    improved = 0
    for _ in range(100):
        true_pose, measurements = build_noisy_landmark(rng, int(rng.integers(5, 11)))
        index = select_reference_index(measurements, params)
        refined_err = float(
            np.linalg.norm(measurements[index].pose.position - true_pose.position)
        )
        first_err = float(
            np.linalg.norm(measurements[0].pose.position - true_pose.position)
        )
        refined_sq.append(refined_err**2)
        first_sq.append(first_err**2)
        if refined_err < first_err:
            improved += 1
    rmse_refined = math.sqrt(np.mean(refined_sq))
    rmse_first = math.sqrt(np.mean(first_sq))
    _criterion(
        "refined-pose position RMSE beats first-measurement policy",
        rmse_refined <= rmse_first and improved >= 70,
        f"RMSE {rmse_refined:.3f} vs {rmse_first:.3f} m, strict improvement {improved}/100",
    )


def test_gmm_density_and_normalization():
    gmm = LandmarkGMM(components=np.zeros((1, 6)), covariance=SharedCovariance(np.eye(6)))
    peak = gmm.likelihood(np.zeros(6))[0]
    peak_ok = abs(peak - (2.0 * math.pi) ** -3) < 1e-12

    # Monte Carlo integral of the density over the +-8 sigma box with 2^20
    # ~= 1e6 samples. A Gaussian proposal with the box indicator keeps the
    # estimator variance ~0.1% where a uniform proposal would sit near 9%.
    rng = np.random.default_rng(2024)
    n = 2**20
    proposal_sigma = 1.5
    xs = rng.normal(scale=proposal_sigma, size=(n, 6))
    inside = np.all(np.abs(xs) <= 8.0, axis=1)
    log_q = (
        -0.5 * np.sum((xs / proposal_sigma) ** 2, axis=1)
        - 6.0 * math.log(proposal_sigma)
        - 3.0 * math.log(2.0 * math.pi)
    )
    integral = float(np.mean(gmm.likelihood(xs) / np.exp(log_q) * inside))
    integral_ok = abs(integral - 1.0) <= 0.05

    _criterion(
        "6-D density peak equals (2*pi)^-3 and integrates to 1 +- 0.05",
        peak_ok and integral_ok,
        f"peak {peak:.12e}, integral {integral:.4f}",
    )


def test_pose_score_oracle_equivalence():
    rng = np.random.default_rng(7)
    params = REFINE
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        _, measurements = build_noisy_landmark(rng, n)
        scores = pose_scores(measurements, params)
        for k in range(n):
            if scores[k] != oracle_score(k, measurements, params):
                mismatches += 1
        if select_reference_index(measurements, params) != oracle_argmin(measurements, params):
            mismatches += 1
    _criterion(
        "pose score and selection match independent brute force exactly",
        mismatches == 0,
        f"{mismatches} mismatches over 1000 landmarks",
    )


def test_grouping_law():
    rng = np.random.default_rng(99)
    failures = 0
    for _ in range(500):
        n = int(rng.integers(1, 201))
        group_size = int(rng.integers(1, 11))
        overlap = int(rng.integers(0, group_size))
        ids = np.cumsum(rng.integers(1, 3, size=n)).tolist()
        keyframes = [make_keyframe(i) for i in ids]
        batch = form_groups(keyframes, group_size, overlap)
        if [g.keyframe_ids for g in batch] != documented_windows(ids, group_size, overlap):
            failures += 1
            continue
        covered = {i for g in batch for i in g.keyframe_ids}
        if covered != set(ids):
            failures += 1
            continue
        for prev, cur in zip(batch, batch[1:]):
            if len(set(prev.keyframe_ids) & set(cur.keyframe_ids)) != overlap:
                failures += 1
                break
    _criterion(
        "grouping follows the documented windows with exact overlap on 500 random cases",
        failures == 0,
        f"{failures} failing cases",
    )


def test_same_group_exclusion_and_conservation(quick_experiment):
    violations = 0
    fixtures = [(r["dataset"], r[v]) for r in quick_experiment["rows"] for v in ("hier", "flat")]
    office = generate(replace(preset("office_desk"), seed=0))
    fixtures.append((office, _run_variant(office, RunConfig())))
    for dataset, result in fixtures:
        for lm in result.landmarks:
            groups = [g for g, _ in lm.associated_tracks]
            if len(groups) != len(set(groups)):
                violations += 1
            if len({m.class_label for m in lm.measurements}) > 1:
                violations += 1
        all_ids = {m.measurement_id for kf in dataset.keyframes for m in kf.measurements}
        if set(result.assignments) != all_ids:
            violations += 1
    _criterion(
        "no landmark holds two tracks of one group; every measurement mapped once",
        violations == 0,
        f"{violations} violations over {len(fixtures)} fixtures",
    )


def test_overlap_boost_exact_ratio():
    shared = make_measurement(1, kf_id=10, pos=(0, 0, 0))
    fill = [make_measurement(i, kf_id=i - 9, pos=(0.1, 0, 0)) for i in (10, 11)]
    twins = [make_measurement(i, kf_id=i - 19, pos=(0.1, 0, 0)) for i in (20, 21)]
    sharing = landmark_of([shared] + fill, landmark_id=1)
    plain = landmark_of([make_measurement(99, kf_id=5, pos=(0, 0, 0))] + twins, landmark_id=2)
    track = track_of([shared, make_measurement(2, kf_id=11, pos=(0.05, 0, 0))], group_index=9)
    weights = association_weights(track, [sharing, plain], ASSOC)
    w_shared, w_plain = weights.landmark_weights
    _criterion(
        "overlap-sharing landmark weight is exactly 1.5x its twin",
        w_shared == 1.5 * w_plain,
        f"ratio {w_shared / w_plain!r}",
    )


def test_cmd_run_determinism(tmp_path):
    dataset_path = tmp_path / "ds.assoc.jsonl"
    assert cli_main(["synth", "--preset", "aisle_quick", "--seed", "3", "-o", str(dataset_path)]) == 0
    outputs = []
    for tag in ("one", "two"):
        map_path = tmp_path / f"map_{tag}.assoc.jsonl"
        report_path = tmp_path / f"report_{tag}.assoc.jsonl"
        assert cli_main(["run", str(dataset_path), "--seed", "4", "-o", str(map_path)]) == 0
        assert cli_main(["eval", str(map_path), str(dataset_path), "-o", str(report_path)]) == 0
        outputs.append((map_path.read_bytes(), report_path.read_bytes()))
    same_map = outputs[0][0] == outputs[1][0]
    same_report = outputs[0][1] == outputs[1][1]
    _criterion(
        "repeated cmd_run and cmd_eval are byte-identical",
        same_map and same_report,
        f"map identical: {same_map}, report identical: {same_report}",
    )


def test_assignment_optimality_ten_thousand():
    rng = np.random.default_rng(1234)
    mismatches = 0
    for _ in range(10_000):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        cost = rng.uniform(0.0, 1.0, size=(rows, cols))
        cost[rng.uniform(size=(rows, cols)) < 0.2] = FORBIDDEN_COST
        pairs = solve_assignment(cost)
        total = sum(cost[r, c] for r, c in pairs) + FORBIDDEN_COST * (
            min(rows, cols) - len(pairs)
        )
        if rows <= cols:
            best = min(
                sum(cost[i, perm[i]] for i in range(rows))
                for perm in permutations(range(cols), rows)
            )
        else:
            best = min(
                sum(cost[perm[j], j] for j in range(cols))
                for perm in permutations(range(rows), cols)
            )
        if abs(total - best) > 1e-9:
            mismatches += 1
    _criterion(
        "per-keyframe assignment matches brute-force minimum on 10000 instances",
        mismatches == 0,
        f"{mismatches} mismatches",
    )
