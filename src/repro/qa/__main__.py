"""Command-line entry: ``python -m repro.qa fuzz``.

Exit status: 0 when the run completes with zero divergences, 1 when any
check diverged (repro artifacts are in ``--out``), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import sys

from .fuzz import FuzzConfig, run_fuzz


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa",
        description="Correctness fuzzing for the BCC algorithms and service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pf = sub.add_parser(
        "fuzz",
        help="differential + metamorphic fuzzing with automatic minimization",
    )
    pf.add_argument("--seconds", type=float, default=60.0,
                    help="time budget (default 60)")
    pf.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    pf.add_argument("--algorithm", action="append", dest="algorithms",
                    metavar="NAME",
                    help="algorithm under test; repeatable (default: all registered)")
    pf.add_argument("--max-iterations", type=int, default=None,
                    help="stop after N iterations instead of the time budget")
    pf.add_argument("--max-failures", type=int, default=5,
                    help="stop after this many divergences (default 5)")
    pf.add_argument("--out", default="results/qa",
                    help="repro-artifact directory (default results/qa)")
    pf.add_argument("--no-minimize", action="store_true",
                    help="skip shrinking failing graphs")
    pf.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.algorithms:
        from ..api import list_algorithms

        known = set(list_algorithms())
        for name in args.algorithms:
            if name not in known:
                parser.error(
                    f"unknown algorithm {name!r}; choose from {sorted(known)}"
                )
    config = FuzzConfig(
        seconds=args.seconds,
        seed=args.seed,
        algorithms=tuple(args.algorithms) if args.algorithms else None,
        max_iterations=args.max_iterations,
        max_failures=args.max_failures,
        minimize=not args.no_minimize,
        out_dir=args.out,
    )
    progress = None if args.quiet else lambda line: print(line, flush=True)
    if progress:
        progress(
            f"fuzzing algorithms={list(config.algorithms)} "
            f"seed={config.seed} budget={config.seconds:.0f}s"
        )
    report = run_fuzz(config, progress=progress)
    print(report.summary())
    for path in report.artifacts:
        print(f"  artifact: {path}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
