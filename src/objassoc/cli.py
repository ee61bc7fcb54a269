"""Batch command-line interface.

Subcommands:
    synth    generate a labeled synthetic dataset
    run      group, track, associate, and refine; write the landmark map
    eval     score a map against its dataset; write a report and a CSV row
    compare  hierarchical vs flat baseline over several seeds

Exit codes: 0 success, 2 configuration error (a numerical one, such as an
unusable mixture covariance, included), 3 data error. ``run`` records the
SHA-256 of the dataset file in the map's manifest, and ``eval`` refuses (exit
3) a map without it, a map built from another dataset, and a map that assigns
a measurement id the dataset does not hold.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
from dataclasses import replace

from . import records
from .association import run_association
from .config import RunConfig, config_to_mapping, load_config
from .errors import DataFormatError, InvalidConfigurationError, InvalidInputError, NumericalError
from .metrics import evaluate
from .synth import PRESET_NAMES, generate, preset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

CSV_FIELDS = (
    "scenario",
    "seed",
    "group_size",
    "group_overlap",
    "accuracy",
    "predicted_count",
    "gt_count",
    "rmse_pos",
    "rmse_rot",
)


def _manifest_hash(map_path) -> str:
    with open(map_path, "rb") as fh:
        first_line = fh.readline()
    return hashlib.sha256(first_line).hexdigest()


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_provenance(args, manifest: dict, assignments: dict[int, int], dataset) -> None:
    """Refuse to score a map against a dataset it was not built from."""
    recorded = manifest.get("dataset_sha256")
    if recorded is None:
        raise DataFormatError(f"{args.map} records no dataset_sha256; run it again to score it")
    if recorded != _file_sha256(args.dataset):
        raise DataFormatError(f"{args.map} was built from another dataset than {args.dataset}")
    known = {m.measurement_id for kf in dataset.keyframes for m in kf.measurements}
    unknown = sorted(set(assignments) - known)
    if unknown:
        raise DataFormatError(
            f"{args.map} assigns {len(unknown)} measurement id(s) not in {args.dataset}, "
            f"first {unknown[0]}"
        )


def _run_on_dataset(dataset, config: RunConfig):
    return run_association(
        dataset.keyframes,
        group_size=config.group_size,
        group_overlap=config.group_overlap,
        tracker_params=config.tracker_params(),
        assoc_params=config.assoc_params(),
        base_cov=config.base_cov(),
        refine_params=config.refine_params(),
    )


def cmd_synth(args) -> int:
    if args.preset:
        scenario = preset(args.preset)
    else:
        dataset_like = records.read_dataset(args.scenario)
        if dataset_like.config is None:
            raise InvalidConfigurationError(f"{args.scenario} carries no scenario config")
        scenario = dataset_like.config
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    dataset = generate(scenario)
    records.write_dataset(dataset, args.out)
    print(f"wrote {args.out}")
    print(f"gt landmarks: {len(dataset.gt_landmarks)}")
    print(f"measurements: {dataset.measurement_count}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        config = config.with_seed(args.seed)
    if args.flat:
        config = config.flat()
    dataset = records.read_dataset(args.dataset)
    result = _run_on_dataset(dataset, config)
    manifest = dict(config_to_mapping(config))
    manifest["dataset"] = os.path.basename(str(args.dataset))
    manifest["dataset_seed"] = dataset.config.seed if dataset.config else None
    manifest["dataset_sha256"] = _file_sha256(args.dataset)
    records.write_map(result.landmarks, result.assignments, manifest, args.out)
    print(f"wrote {args.out}")
    print(f"landmarks: {len(result.landmarks)}")
    print(f"assignments: {len(result.assignments)}")
    return EXIT_OK


def cmd_eval(args) -> int:
    dataset = records.read_dataset(args.dataset)
    manifest, landmarks, assignments = records.read_map(args.map)
    _check_provenance(args, manifest, assignments, dataset)
    echo = {
        "dataset_seed": dataset.config.seed if dataset.config else None,
        "manifest_hash": _manifest_hash(args.map),
        "run": manifest,
    }
    report = evaluate(landmarks, assignments, dataset, echo=echo)
    records.write_report(report, args.out)
    if args.csv:
        _append_csv_row(args.csv, manifest, report)
    rmse = report.landmark_pose_rmse_pos
    print(f"wrote {args.out}")
    print(f"accuracy: {report.association_accuracy:.2f}%")
    print(f"objects: predicted {report.predicted_count} vs gt {report.gt_count}")
    print(f"pose rmse: {'n/a' if rmse is None else f'{rmse:.3f} m'}")
    return EXIT_OK


def _append_csv_row(csv_path, manifest: dict, report) -> None:
    scenario = manifest.get("dataset", "")
    need_header = not os.path.exists(csv_path) or os.path.getsize(csv_path) == 0
    with open(csv_path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if need_header:
            writer.writerow(CSV_FIELDS)
        writer.writerow(
            [
                scenario,
                manifest.get("assoc.seed", ""),
                manifest.get("group_size", ""),
                manifest.get("group_overlap", ""),
                f"{report.association_accuracy:.4f}",
                report.predicted_count,
                report.gt_count,
                "" if report.landmark_pose_rmse_pos is None else f"{report.landmark_pose_rmse_pos:.6f}",
                "" if report.landmark_pose_rmse_rot is None else f"{report.landmark_pose_rmse_rot:.6f}",
            ]
        )


def compare_on_dataset(dataset, config: RunConfig, seeds: list[int]) -> dict:
    """Hierarchical vs flat runs over the given association seeds."""
    rows = []
    for seed in seeds:
        for variant, variant_config in (
            ("hierarchical", config.with_seed(seed)),
            ("flat", config.flat().with_seed(seed)),
        ):
            result = _run_on_dataset(dataset, variant_config)
            report = evaluate(result.landmarks, result.assignments, dataset)
            rows.append(
                {
                    "seed": seed,
                    "variant": variant,
                    "accuracy": report.association_accuracy,
                    "predicted_count": report.predicted_count,
                    "gt_count": report.gt_count,
                }
            )

    def mean_of(variant: str, key: str) -> float:
        values = [r[key] for r in rows if r["variant"] == variant]
        return sum(values) / len(values)

    summary = {
        "rows": rows,
        "hierarchical_mean_accuracy": mean_of("hierarchical", "accuracy"),
        "flat_mean_accuracy": mean_of("flat", "accuracy"),
        "hierarchical_mean_count": mean_of("hierarchical", "predicted_count"),
        "flat_mean_count": mean_of("flat", "predicted_count"),
        "gt_count": rows[0]["gt_count"] if rows else 0,
        "seeds": seeds,
    }
    summary["accuracy_delta"] = (
        summary["hierarchical_mean_accuracy"] - summary["flat_mean_accuracy"]
    )
    return summary


def cmd_compare(args) -> int:
    config = load_config(args.config) if args.config else RunConfig()
    if args.seeds < 1:
        raise InvalidConfigurationError("--seeds must be >= 1")
    dataset = records.read_dataset(args.dataset)
    seeds = [config.assoc_seed + k for k in range(args.seeds)]
    summary = compare_on_dataset(dataset, config, seeds)

    print(f"{'seed':>6}  {'variant':<13} {'accuracy':>9} {'objects':>8} {'gt':>4}")
    for row in summary["rows"]:
        print(
            f"{row['seed']:>6}  {row['variant']:<13} {row['accuracy']:>8.2f}% "
            f"{row['predicted_count']:>8} {row['gt_count']:>4}"
        )
    print(
        f"{'mean':>6}  {'hierarchical':<13} "
        f"{summary['hierarchical_mean_accuracy']:>8.2f}% "
        f"{summary['hierarchical_mean_count']:>8.2f} {summary['gt_count']:>4}"
    )
    print(
        f"{'mean':>6}  {'flat':<13} {summary['flat_mean_accuracy']:>8.2f}% "
        f"{summary['flat_mean_count']:>8.2f} {summary['gt_count']:>4}"
    )
    if args.seeds > 1:
        print(f"accuracy delta (hierarchical - flat): {summary['accuracy_delta']:+.2f} points")
    else:
        print(f"accuracy delta: {summary['accuracy_delta']:+.2f} points (single seed)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="objassoc",
        description="Hierarchical object association pipeline and evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    source = p_synth.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_NAMES)
    source.add_argument("--scenario", help="dataset file whose scenario config to reuse")
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("-o", "--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="run the association pipeline on a dataset")
    p_run.add_argument("dataset")
    p_run.add_argument("--config", default=None, help="key=value run configuration file")
    p_run.add_argument("--seed", type=int, default=None, help="override assoc.seed")
    p_run.add_argument("--flat", action="store_true", help="force the M=1, j=0 baseline")
    p_run.add_argument("-o", "--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score a map against its dataset")
    p_eval.add_argument("map")
    p_eval.add_argument("dataset")
    p_eval.add_argument("-o", "--out", required=True)
    p_eval.add_argument("--csv", default=None, help="append a summary row to this CSV")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="hierarchical vs flat over several seeds")
    p_cmp.add_argument("dataset")
    p_cmp.add_argument("--config", default=None)
    p_cmp.add_argument("--seeds", type=int, default=10)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfigurationError, InvalidInputError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
