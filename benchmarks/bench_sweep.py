"""Sweep/Study layer overhead: cold vs warm execution.

Runs one representative study (an ``n`` x ``k`` grid of Algorithm 3 on the
batch fast path) under two regimes:

- **cold** — every cell simulates through ``run_batch``;
- **warm** — every cell is served from the cache; the run must execute
  **zero** simulations (asserted) and return a bit-identical table.

Records ``cold_cells_per_sec`` (machine-absolute; compared only on
matching hardware) plus the machine-portable ratio ``warm_speedup``
(cold/warm) in ``BENCH_sweep.json`` for
``tools/check_bench_regression.py``.

Run with::

    REPRO_BENCH_PROFILE=quick pytest benchmarks/bench_sweep.py --benchmark-only
"""

from __future__ import annotations

import time

from bench_json import update_bench_json

from repro.api import (
    ResultCache,
    Study,
    Sweep,
    expr,
    grid,
    nests_spec,
    ref,
    run_study,
)


def _study(quick_mode: bool) -> Study:
    # The quick grid is deliberately non-trivial (~a second cold): the
    # recorded cold/warm ratio gates CI, so the cold side must dominate
    # timer noise.
    sizes = (512, 1024, 2048) if quick_mode else (512, 1024, 2048, 4096)
    k_values = (2, 4) if quick_mode else (2, 4, 8)
    trials = 32 if quick_mode else 48
    return Study(
        name="bench-sweep",
        description="simple-algorithm (n, k) grid for the sweep bench",
        sweep=Sweep(
            base={
                "algorithm": "simple",
                "nests": nests_spec("all_good", k=ref("k")),
                "seed": expr(2015, n=1, k=1000, cast="int"),
                "max_rounds": 50_000,
            },
            axes=(grid("n", sizes), grid("k", k_values)),
        ),
        trials=trials,
        backend="fast",
        metrics=("n_trials", "success_rate", "median_rounds"),
    )


def _cold_then_warm(study: Study, cache: ResultCache):
    start = time.perf_counter()
    cold = run_study(study, cache=cache, workers=1)
    cold_elapsed = time.perf_counter() - start
    # The warm run is milliseconds; take the best of several repetitions so
    # the recorded speedup ratio is stable enough to gate regressions on.
    warm_elapsed = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        warm = run_study(study, cache=cache, workers=1)
        warm_elapsed = min(warm_elapsed, time.perf_counter() - start)
    return cold, cold_elapsed, warm, warm_elapsed


def test_study_cold_vs_warm(benchmark, quick_mode, tmp_path):
    """Cold study wall time vs the fully-cached re-run."""
    study = _study(quick_mode)
    cache = ResultCache(tmp_path / "cache")

    cold, cold_elapsed, warm, warm_elapsed = benchmark.pedantic(
        _cold_then_warm, args=(study, cache), rounds=1, iterations=1
    )

    # The warm run is the contract under test: zero simulations, every cell
    # cache-served, bit-identical columnar results.
    assert cold.cache_misses == len(cold.cells)
    assert warm.simulated_trials == 0
    assert warm.cache_hits == len(warm.cells)
    assert cold.table.equals(warm.table)

    n_cells = len(cold.cells)
    speedup = cold_elapsed / warm_elapsed if warm_elapsed > 0 else float("inf")
    benchmark.extra_info["cells"] = n_cells
    benchmark.extra_info["cold_seconds"] = round(cold_elapsed, 3)
    benchmark.extra_info["warm_seconds"] = round(warm_elapsed, 4)
    benchmark.extra_info["warm_speedup"] = round(speedup, 1)
    update_bench_json(
        "sweep",
        "quick" if quick_mode else "full",
        {"cells": n_cells, "trials_per_cell": study.trials},
        {"cold_cells_per_sec": n_cells / cold_elapsed, "warm_speedup": speedup},
    )

