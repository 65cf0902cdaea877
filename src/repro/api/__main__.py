"""Scenario API command line: run algorithms, studies, and sweeps.

Usage::

    python -m repro.api --list
    python -m repro.api --list-studies
    python -m repro.api --algorithm simple --n 256 --k 4 --good 1,3
    python -m repro.api --algorithm optimal --backend agent --trials 5
    python -m repro.api --algorithm simple --trials 40 --workers 4 --json
    python -m repro.api sweep my_study.json --workers 4
    python -m repro.api sweep E7 --quick --no-cache --csv
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from repro.api import (
    REGISTRY,
    STUDIES,
    ExecutionPolicy,
    Scenario,
    Study,
    aggregate,
    default_workers,
    resolve_backend,
    run_batch,
    run_study,
)
from repro.exceptions import ReproError
from repro.model.nests import NestConfig


def _parse_good(spec: str, k: int) -> set[int]:
    if spec == "all":
        return set(range(1, k + 1))
    return {int(part) for part in spec.split(",") if part.strip()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api",
        description="Run a registered house-hunting algorithm via the Scenario API.",
    )
    parser.add_argument("--list", action="store_true", help="list registered algorithms")
    parser.add_argument(
        "--list-studies",
        action="store_true",
        help="list the registered experiment studies (run with `sweep NAME`)",
    )
    parser.add_argument("--algorithm", help="registry name (see --list)")
    parser.add_argument(
        "--backend",
        choices=("auto", "agent", "fast"),
        default="auto",
        help="engine selection (default: auto)",
    )
    parser.add_argument("--n", type=int, default=256, help="colony size")
    parser.add_argument("--k", type=int, default=4, help="candidate nests")
    parser.add_argument(
        "--good",
        default="all",
        help="comma-separated good nest ids, or 'all' (default)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--max-rounds", type=int, default=100_000, help="round cap")
    parser.add_argument(
        "--trials", type=int, default=1, help="independent trials (default 1)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --trials > 1 (default: $REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--batch-chunk",
        type=int,
        default=None,
        metavar="B",
        help="trials per batch-kernel invocation for homogeneous sweeps "
        "(default: the size-aware default_batch_chunk(n); results never "
        "depend on it)",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="algorithm parameter (repeatable); VALUE is parsed as JSON "
        "when possible, else kept as a string",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    return parser


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ValueError(f"--param needs KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api sweep",
        description="Run a declarative study: a registered name or a JSON file.",
    )
    parser.add_argument(
        "study",
        help="registered study name (see --list-studies) or path to a "
        "Study JSON file",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced grids for registered studies"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed for registered studies"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: $REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache for this run",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR, else no cache)",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "agent", "fast"),
        default=None,
        help="force one engine for every cell (default: per-cell)",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-chunk deadline for supervised dispatch (default: none)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="chunk-level retries after a worker death or blown deadline "
        "(default: 2)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort on the first exhausted cell instead of quarantining "
        "it as a failure row",
    )
    parser.add_argument(
        "--no-supervise",
        action="store_true",
        help="disable worker supervision (pre-resilience dispatch)",
    )
    parser.add_argument(
        "--csv", action="store_true", help="emit the result table as CSV"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    return parser


def _build_policy(args: argparse.Namespace) -> ExecutionPolicy | None:
    """An ExecutionPolicy from the CLI flags (None: scheduler default)."""
    overrides = {}
    if args.chunk_timeout is not None:
        overrides["chunk_timeout"] = args.chunk_timeout
    if args.max_retries is not None:
        overrides["max_retries"] = args.max_retries
    if args.fail_fast:
        overrides["quarantine"] = False
    if args.no_supervise:
        overrides["supervise"] = False
    return ExecutionPolicy(**overrides) if overrides else None


def _load_study(spec: str, quick: bool, seed: int) -> Study:
    # Registered studies and their metric functions live in the experiment
    # modules; import lazily (only for `sweep`) so plain scenario runs
    # never pay for them.  Study files may reference those metrics too.
    import repro.experiments  # noqa: F401

    # A registered name wins over a same-named stray file in the cwd; an
    # explicit .json suffix (or any path separator) always means a file.
    path = Path(spec)
    looks_like_path = path.suffix == ".json" or len(path.parts) > 1
    if looks_like_path or (spec not in STUDIES and path.is_file()):
        return Study.from_json(path.read_text(encoding="utf-8"))
    return STUDIES.build(spec, quick=quick, base_seed=seed)


def sweep_main(argv: list[str]) -> int:
    args = build_sweep_parser().parse_args(argv)
    try:
        study = _load_study(args.study, args.quick, args.seed)
        cache = "auto"
        if args.no_cache:
            cache = None
        elif args.cache_dir is not None:
            cache = args.cache_dir
        if args.json:
            return _sweep_json_stream(args, study, cache)
        result = run_study(
            study,
            backend=args.backend,
            workers=args.workers,
            cache=cache,
            policy=_build_policy(args),
        )
    except (ReproError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    quarantined = result.quarantined
    degraded = result.degraded
    if args.csv:
        sys.stdout.write(result.table.to_csv())
        return 0
    print(f"study {study.name}: {len(result.cells)} cells, ", end="")
    if result.cache_hits or result.cache_misses:
        print(
            f"{result.cache_hits} cached / {result.cache_misses} computed "
            f"({result.simulated_trials} trials simulated)"
        )
    else:
        print(f"{result.simulated_trials} trials simulated (cache disabled)")
    for cell_result in degraded:
        print(
            f"  degraded cell {cell_result.cell.index}: served by the "
            f"agent engine after {', '.join(cell_result.degraded)}"
        )
    for cell_result in quarantined:
        failure = cell_result.failure
        print(
            f"  quarantined cell {cell_result.cell.index}: {failure.kind}: "
            f"{failure.message} (after {failure.attempts} attempt(s))"
        )
    sys.stdout.write(result.table.to_csv())
    return 0


def _sweep_json_stream(args: argparse.Namespace, study, cache) -> int:
    """``sweep --json``: NDJSON — one line per completed cell, then a summary.

    Cells stream the moment they finish (a supervisor tailing the run sees
    progress instead of one buffered blob), each line the shared
    :func:`~repro.api.scheduler.cell_event` record.  The final line keeps
    the historical summary object (``study`` / ``table`` / counters)
    byte-compatible in *keys* with the old single-object output.
    """
    from repro.api.scheduler import CellScheduler, cell_event, fold_study_result

    with CellScheduler(
        study,
        backend=args.backend,
        workers=args.workers,
        cache=cache,
        policy=_build_policy(args),
    ) as scheduler:
        results = []
        for cell_result in scheduler.outcomes():
            results.append(cell_result)
            print(json.dumps(cell_event(cell_result)), flush=True)
        result = fold_study_result(
            study, results, cached=scheduler.cache is not None
        )
    print(
        json.dumps(
            {
                "study": study.to_dict(),
                "table": result.table.to_dict(),
                "cells": len(result.cells),
                "cache_hits": result.cache_hits,
                "cache_misses": result.cache_misses,
                "simulated_trials": result.simulated_trials,
                "quarantined": [
                    {
                        "cell": c.cell.index,
                        "kind": c.failure.kind,
                        "message": c.failure.message,
                        "attempts": c.failure.attempts,
                    }
                    for c in result.quarantined
                ],
                "degraded": [c.cell.index for c in result.degraded],
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name, backends, summary in REGISTRY.describe():
            print(f"{name:18s} [{backends:10s}] {summary}")
        return 0

    if args.list_studies:
        import repro.experiments  # noqa: F401  (registers the studies)

        for name, description in STUDIES.describe():
            print(f"{name:6s} {description}")
        return 0

    if not args.algorithm:
        parser.print_usage(sys.stderr)
        print("error: --algorithm is required (or use --list)", file=sys.stderr)
        return 2

    try:
        params = _parse_params(args.param)
        scenario = Scenario(
            algorithm=args.algorithm,
            n=args.n,
            nests=NestConfig.binary(args.k, _parse_good(args.good, args.k)),
            seed=args.seed,
            max_rounds=args.max_rounds,
            params=params,
        )
        backend = resolve_backend(scenario, args.backend)
        scenarios = (
            scenario.trials(args.trials) if args.trials > 1 else [scenario]
        )
        reports = run_batch(
            scenarios,
            workers=args.workers if args.workers is not None else default_workers(),
            backend=args.backend,
            batch_chunk=args.batch_chunk,
        )
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.json:
        payload = {
            "scenario": scenario.to_dict(),
            "backend": backend,
            "reports": [report.to_dict() for report in reports],
        }
        if len(reports) > 1:
            stats = aggregate(reports)
            payload["stats"] = {
                "n_trials": stats.n_trials,
                "n_completed": sum(1 for r in reports if r.converged),
                "n_converged": stats.n_converged,
                "success_rate": stats.success_rate,
                "median_rounds": stats.median_rounds,
            }
        print(json.dumps(payload, indent=2))
        return 0

    print(
        f"{args.algorithm} on backend={backend}: n={args.n}, k={args.k}, "
        f"seed={args.seed}, trials={args.trials}"
    )
    if len(reports) == 1:
        report = reports[0]
        if report.converged:
            print(
                f"converged in {report.converged_round} rounds"
                + (
                    f" on nest {report.chosen_nest}"
                    f" ({'good' if report.chose_good_nest else 'bad'})"
                    if report.chosen_nest is not None
                    else ""
                )
            )
        else:
            print(f"did not converge within {report.rounds_executed} rounds")
    elif all(report.chosen_nest is None for report in reports):
        # Reference processes (rumor, spread censored, ...) complete without
        # choosing a nest; "success on a good nest" would read as failure.
        completed = [r.converged_round for r in reports if r.converged]
        median = statistics.median(completed) if completed else float("nan")
        print(
            f"completed {len(completed)}/{len(reports)} trials, "
            f"median {median:.1f} rounds"
        )
    else:
        stats = aggregate(reports)
        print(
            f"success {stats.success_rate:.3f} "
            f"({stats.n_converged}/{stats.n_trials} trials), "
            f"median {stats.median_rounds:.1f} rounds, "
            f"p95 {stats.percentile(95):.1f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
