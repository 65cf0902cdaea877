"""Scenario-API throughput: what a plain ``run_batch`` call delivers.

Times :func:`repro.api.run_batch` pushing trials through the fast path at
``n = 4096`` (the scale the ROADMAP targets for sweeps), serially and over
a small process pool, and records **trials/sec** both in the benchmark's
``extra_info`` and in ``BENCH_api.json`` at the repo root (the committed
regression baseline for ``tools/check_bench_regression.py``).

Since PR 2 the homogeneous trial sweep dispatches to the trial-parallel
batch engine, so this measures the default end-to-end API experience; the
engine-level batch rows (per backend, chunked) live in ``bench_batch.py``.

Run with::

    REPRO_BENCH_PROFILE=quick pytest benchmarks/bench_api.py --benchmark-only
"""

from __future__ import annotations

import os
import time

from bench_json import update_bench_json

from repro.api import Scenario, run_batch
from repro.model.nests import NestConfig

N = 4096
K = 8


def _scenario(seed: int) -> Scenario:
    return Scenario(
        algorithm="simple",
        n=N,
        nests=NestConfig.all_good(K),
        seed=seed,
        max_rounds=50_000,
    )


def _trials(quick_mode: bool) -> int:
    return 4 if quick_mode else 16


def _timed_batch(scenarios, workers: int):
    start = time.perf_counter()
    reports = run_batch(scenarios, workers=workers, backend="fast")
    elapsed = time.perf_counter() - start
    return reports, elapsed


def _record(quick_mode: bool, trials: int, **metrics: float) -> None:
    # workers is part of the parallel workload's identity; recording it in
    # the config makes the regression checker skip rather than compare
    # numbers measured with different pool sizes.
    update_bench_json(
        "api",
        "quick" if quick_mode else "full",
        {"n": N, "k": K, "trials": trials, "workers": min(4, os.cpu_count() or 1)},
        metrics,
    )


def test_run_batch_throughput_serial(benchmark, quick_mode):
    """run_batch trials/sec at n=4096, workers=1 (the reference number)."""
    trials = _trials(quick_mode)
    scenarios = _scenario(2015).trials(trials)

    reports, elapsed = benchmark.pedantic(
        _timed_batch, args=(scenarios, 1), rounds=1, iterations=1
    )
    assert all(r.converged for r in reports)
    benchmark.extra_info["trials"] = trials
    benchmark.extra_info["trials_per_sec"] = round(trials / elapsed, 3)
    _record(quick_mode, trials, serial_trials_per_sec=trials / elapsed)


def test_run_batch_throughput_parallel(benchmark, quick_mode):
    """run_batch trials/sec at n=4096 over a small process pool."""
    trials = _trials(quick_mode)
    workers = min(4, os.cpu_count() or 1)
    scenarios = _scenario(2015).trials(trials)

    reports, elapsed = benchmark.pedantic(
        _timed_batch, args=(scenarios, workers), rounds=1, iterations=1
    )
    assert all(r.converged for r in reports)
    benchmark.extra_info["trials"] = trials
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["trials_per_sec"] = round(trials / elapsed, 3)
    _record(quick_mode, trials, parallel_trials_per_sec=trials / elapsed)
