#!/usr/bin/env python
"""Fail when a fresh benchmark run regresses >30% vs the committed baseline.

Usage (after regenerating the records)::

    REPRO_BENCH_PROFILE=quick PYTHONPATH=src pytest benchmarks/bench_api.py \
        benchmarks/bench_batch.py -q --benchmark-disable
    python tools/check_bench_regression.py

For every ``BENCH_*.json`` at the repo root the working-tree copy (the
fresh run) is compared against the copy committed at ``HEAD`` (the
baseline).  Each shared ``metrics`` entry must satisfy

    fresh >= baseline * (1 - tolerance)        # throughput metrics

with ``tolerance = 0.30`` by default (``--tolerance`` to override).  A
record whose ``profile`` or ``config`` differs from the baseline is
skipped with a notice — ratios across different workloads are noise.
Absolute throughput metrics (``*_per_sec``) are additionally skipped when
the ``machine`` fingerprint differs from the baseline's: a committed
dev-machine number says nothing about a CI runner's hardware.  Portable
*ratio* metrics (both sides measured in the same session on the same
machine) are always compared.  Missing baselines (first commit of a
record) pass trivially.

Exit status: 0 = no regression, 1 = regression, 2 = usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def committed_version(path: Path) -> dict | None:
    """The JSON record at HEAD, or None if it is not committed."""
    rel = path.relative_to(REPO_ROOT).as_posix()
    proc = subprocess.run(
        ["git", "show", f"HEAD:{rel}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def check_record(path: Path, tolerance: float) -> list[str]:
    """Regression messages for one record (empty = clean)."""
    fresh = json.loads(path.read_text(encoding="utf-8"))
    baseline = committed_version(path)
    name = path.name
    if baseline is None:
        print(f"{name}: no committed baseline yet; skipping")
        return []
    if fresh.get("profile") != baseline.get("profile") or fresh.get(
        "config"
    ) != baseline.get("config"):
        print(f"{name}: profile/config changed vs baseline; skipping comparison")
        return []
    same_machine = fresh.get("machine") == baseline.get("machine")
    failures: list[str] = []
    fresh_metrics = fresh.get("metrics", {})
    # Records may flag metrics whose value only means something on the
    # measuring machine — ratio metrics whose two sides scale differently
    # with hardware (e.g. an interpreter-bound engine vs a vectorized
    # one), or allocator-dependent tracemalloc peaks; those compare like
    # the machine-absolute *_per_sec metrics.
    machine_dependent = set(baseline.get("machine_dependent", [])) | set(
        fresh.get("machine_dependent", [])
    )
    # Metrics only some hosts can produce (an optional backend's bench
    # row, say): their absence from a fresh run is expected elsewhere.
    # Every *other* committed metric disappearing on the same machine is
    # a lost capability — the bench stopped measuring something it used
    # to — and must fail rather than silently narrow the baseline.
    conditional = set(baseline.get("conditional", [])) | set(
        fresh.get("conditional", [])
    )
    for key, base_value in baseline.get("metrics", {}).items():
        if key not in fresh_metrics:
            if key in conditional or not same_machine:
                print(f"{name}: metric {key!r} missing from fresh run; skipping")
                continue
            print(f"{name}: metric {key!r} MISSING from fresh run")
            failures.append(
                f"{name}: committed metric {key!r} disappeared from the "
                "fresh run on the same machine (mark it 'conditional' if "
                "host-optional)"
            )
            continue
        machine_bound = (
            key.endswith("_per_sec")
            or key.endswith("_seconds")
            or "_bytes" in key
            or key in machine_dependent
        )
        if machine_bound and not same_machine:
            print(
                f"{name}: {key} is machine-dependent and the machine "
                "fingerprint changed; skipping"
            )
            continue
        new_value = fresh_metrics[key]
        # Memory, overhead-ratio, and latency metrics regress *upward*;
        # everything else is throughput.
        lower_is_better = (
            "_bytes" in key
            or key.endswith("_overhead")
            or key.endswith("_seconds")
            or "_latency" in key
        )
        if lower_is_better:
            bound = base_value * (1.0 + tolerance)
            ok = new_value <= bound
            bound_name = "ceiling"
        else:
            bound = base_value * (1.0 - tolerance)
            ok = new_value >= bound
            bound_name = "floor"
        status = "ok" if ok else "REGRESSION"
        print(
            f"{name}: {key} = {new_value:.3f} "
            f"(baseline {base_value:.3f}, {bound_name} {bound:.3f}) {status}"
        )
        if not ok:
            failures.append(
                f"{name}: {key} regressed {new_value:.3f} "
                f"{'>' if lower_is_better else '<'} {bound:.3f} "
                f"(baseline {base_value:.3f}, tolerance {tolerance:.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop vs baseline (default 0.30)",
    )
    parser.add_argument(
        "records",
        nargs="*",
        type=Path,
        help="records to check (default: every repo-root BENCH_*.json)",
    )
    args = parser.parse_args(argv)

    records = args.records or sorted(REPO_ROOT.glob("BENCH_*.json"))
    if not records:
        print("no BENCH_*.json records found", file=sys.stderr)
        return 2
    failures: list[str] = []
    for path in records:
        if not path.exists():
            print(f"{path}: fresh record missing", file=sys.stderr)
            return 2
        failures.extend(check_record(path, args.tolerance))
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print("benchmark regression check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
