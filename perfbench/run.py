#!/usr/bin/env python3
"""Solve benchmark of se3shell on four bundled scenarios.

    python3 perfbench/run.py --workload rollup|plate|arch|antiparallel \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record-reference

Run from the repository root.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Outputs, run records
and spans go to .perfbench_out/.  See perfbench/NOTES.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread (nproc here is 2): OpenBLAS threads spin on the small
# factorizations, doubling CPU time for no wall-time gain.
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("rollup", "plate", "arch", "antiparallel")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this workload's answer as the reference and exit")
    args = ap.parse_args(argv)

    # must precede the first numpy import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import se3shell
    except ImportError as exc:
        print(f"error: cannot import se3shell from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(se3shell.__file__).resolve().parent.parent != src:
        print(f"error: imported se3shell from {se3shell.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import bench

    if args.record_reference:
        print(f"reference written to {bench.record_reference(args.workload, ROOT)}")
        return 0
    result = bench.run_workload(args.workload, seed=args.seed, seconds=args.seconds,
                                trace=bool(args.trace), root=ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
