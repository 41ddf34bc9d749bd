"""Command-line entry point.

    unitcat verify --suite <name> --tnorm <min|product|lukasiewicz|ordinal:...>
                   --grid <n> --max-size <k> --seed <s> --corpus <m>
                   --report <table|json> [--instance <file>]

Exit codes: 0 all pass; 1 failures; 2 findings only; 3 input error.
"""

from __future__ import annotations

import argparse
import sys

from .instances import InstanceError, parse_tnorm, read_instance
from .reports import emit_report
from .suites import SUITES, SuiteConfig, run_suite
from .tnorms import GridNotClosed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitcat",
        description="exhaustive verification sweeps for unit-interval category structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--suite", required=True, help=f"one of: {', '.join(SUITES)}")
    verify.add_argument("--tnorm", default="lukasiewicz",
                        help="min | product | lukasiewicz | ordinal:a-b-inner[,...]")
    verify.add_argument("--grid", type=int, default=2, help="grid denominator bound")
    verify.add_argument("--max-size", type=int, default=2, help="carrier size bound")
    verify.add_argument("--seed", type=int, default=0, help="sampling seed")
    verify.add_argument(
        "--corpus", type=int, default=1000,
        help="sample count: functoriality's seeded pairs, quantale-axioms on an open grid",
    )
    verify.add_argument("--report", choices=("table", "json"), default="table")
    verify.add_argument("--instance", help="optional instance document (JSON file)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        instance = read_instance(args.instance) if args.instance else None
        config = SuiteConfig(
            suite=args.suite,
            quantale=parse_tnorm(args.tnorm),
            grid=args.grid,
            max_size=args.max_size,
            seed=args.seed,
            corpus=args.corpus,
            instance=instance,
        )
        report = run_suite(config)
    except (InstanceError, GridNotClosed) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    print(emit_report(report, args.report))
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
