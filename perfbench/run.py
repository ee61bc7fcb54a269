"""Benchmark of the objassoc association pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload aisle_long --seed 0 --seconds 40 --trace 0

Workloads: aisle_long, dwell_flat, preset_sweep (see README.md). With
``--trace 0`` the last line of standard output is one JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run. The line before it is a JSON object with run details: machine,
inputs, quality, map and dataset digests and failures. Both also go to
``.bench_out/`` under the checkout, with the spans of a traced run.

The program is imported from ``src/`` of the checkout and from nowhere
else; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# One process, no extra threads: pin BLAS/OpenMP pools before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "objassoc" / "__init__.py").is_file():
        print(f"error: no objassoc package under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import objassoc

    import_s = time.perf_counter() - started
    if Path(objassoc.__file__).resolve().parent != SRC / "objassoc":
        print(f"error: objassoc was imported from {objassoc.__file__}", file=sys.stderr)
        return 2

    from bench import run_benchmark
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, detail = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR, import_s=import_s
    )
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
