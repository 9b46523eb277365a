"""Command line front end.

    subexp run <config.json> [--seed-override K] [--out DIR] [--jobs J]

`run` executes any configured experiment, the inequality grid and the axiom
suite included.
Exit status 0 means every verdict passed; 1 means a verdict failed; 2 means
the run could not be executed (bad config, bad flag or an unsatisfiable
mode).
"""

from __future__ import annotations

import argparse
import sys

from .config import parse_config
from .errors import SubexpError
from .runner import run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subexp",
        description="Sub-linear expectation laboratory: experiments and axiom checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config", help="path to a JSON run configuration")
    p_run.add_argument("--seed-override", type=int, default=None, metavar="K",
                       help="replace the config seed list with the single seed K")
    p_run.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: config output_dir)")
    p_run.add_argument("--jobs", type=int, default=1, metavar="J",
                       help="worker threads, the calling thread included")
    return parser


def _load(path: str):
    with open(path) as fh:
        return parse_config(fh.read())


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.jobs < 1:
        print(f"error: --jobs: need at least 1 worker thread, got {args.jobs}", file=sys.stderr)
        return 2

    try:
        config = _load(args.config)
    except (SubexpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        return run(config, out=args.out, seed_override=args.seed_override, jobs=args.jobs)
    except SubexpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
