"""Command-line entry point: regenerate any experiment table.

Usage::

    python -m repro.experiments            # run everything (slow, full grids)
    python -m repro.experiments --quick    # small grids, seconds per table
    python -m repro.experiments E1 E7      # a subset
    python -m repro.experiments --list     # show the registry
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import EXPERIMENTS, RUNNERS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper-reproduction experiment tables.",
    )
    parser.add_argument(
        "ids",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids (e.g. E1 E7 E14); default: all",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small grids / few trials"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed (default 0)"
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered experiments"
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit markdown tables"
    )
    args = parser.parse_args(argv)

    if args.list:
        for experiment in EXPERIMENTS.values():
            print(f"{experiment.id:4s} {experiment.claim}")
        return 0

    requested = args.ids or list(RUNNERS)
    unknown = [eid for eid in requested if eid not in RUNNERS]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(RUNNERS)}", file=sys.stderr)
        return 2

    for eid in requested:
        start = time.perf_counter()
        table = RUNNERS[eid](quick=args.quick, base_seed=args.seed)
        elapsed = time.perf_counter() - start
        print(table.to_markdown() if args.markdown else table.render())
        print(f"[{eid} completed in {elapsed:.1f}s]")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
