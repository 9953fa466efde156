"""Command-line driver.

    se3shell run CONFIG [--out DIR --steps N --tol X --max-iter N --quiet]
    se3shell bench NAME|all [--out DIR ...]
    se3shell list

Exit codes: 0 converged, 2 parse/configuration error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .outputs import run_scenario
from .scenario import (
    ScenarioError,
    list_bundled,
    load_bundled,
    parse_scenario,
    with_overrides,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3


def _add_run_flags(p):
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--steps", type=int, default=None, help="override load steps")
    p.add_argument("--tol", type=float, default=None, help="override relative tolerance")
    p.add_argument("--max-iter", type=int, default=None, help="override Newton iterations")
    p.add_argument("--quiet", action="store_true", help="suppress iteration log")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="se3shell",
        description="Geometrically exact Cosserat shell statics on SE(3)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("config", help="path to a scenario .cfg file")
    _add_run_flags(p_run)

    p_bench = sub.add_parser("bench", help="run a bundled benchmark (or 'all')")
    p_bench.add_argument("name", help="benchmark name or 'all'")
    _add_run_flags(p_bench)

    sub.add_parser("list", help="list bundled benchmarks")
    return parser


def _execute(cfg, args) -> int:
    cfg = with_overrides(cfg, steps=args.steps, tol=args.tol,
                         max_iters=args.max_iter)
    out_dir = Path(args.out) / cfg.name
    report, _ = run_scenario(cfg, out_dir, quiet=args.quiet)
    status = "converged" if report.converged else "FAILED"
    print(f"{cfg.name}: {status} in {report.wall_time:.2f}s "
          f"({report.iterations} iterations, {len(report.attempts)} attempts, "
          f"{len(report.rejections)} rejected)")
    if not report.converged:
        print(f"  {report.message}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            print("\n".join(list_bundled()))
            return EXIT_OK
        if args.command == "run":
            return _execute(parse_scenario(args.config), args)
        if args.command == "bench":
            names = list_bundled() if args.name == "all" else [args.name]
            worst = EXIT_OK
            for name in names:
                worst = max(worst, _execute(load_bundled(name), args))
            return worst
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
