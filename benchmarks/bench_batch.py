"""Trial-parallel batch engine throughput.

Measures ``run_batch`` at the ROADMAP scale (n = 4096, k = 8) on the same
machine and profile:

- **batch**: the homogeneous sweep dispatched to the trial-parallel v2
  batch kernel in one chunk (the default path);
- **per backend**: the same batch under each kernel backend the host can
  build;
- **batch chunked**: more work split into default-size chunks,
  demonstrating that chunking costs little and (with the bit-identity
  tests) changes nothing.

Everything lands in ``BENCH_batch.json`` at the repo root, which doubles as
the committed regression baseline for ``tools/check_bench_regression.py``
(its 30% check gates ``batch_trials_per_sec``).

Run with::

    REPRO_BENCH_PROFILE=quick pytest benchmarks/bench_batch.py --benchmark-only
"""

from __future__ import annotations

import time

from bench_json import update_bench_json

from repro.api import Scenario, run_batch
from repro.fast.backends import availability, use_backend
from repro.model.nests import NestConfig

N = 4096
K = 8
TRIALS = 16  # the acceptance-gate workload; same in both profiles
#: The chunked-dispatch workload: two size-aware default chunks (64 at
#: this n), i.e. exactly the shape a 2-worker pool would receive.
CHUNK_TRIALS = 128


def _scenario(seed: int) -> Scenario:
    return Scenario(
        algorithm="simple",
        n=N,
        nests=NestConfig.all_good(K),
        seed=seed,
        max_rounds=50_000,
    )


def _config(quick_mode: bool) -> dict:
    return {"n": N, "k": K, "trials": TRIALS, "chunk_trials": CHUNK_TRIALS}


#: Kernel backends that get their own unperturbed-batch throughput row.
#: The unperturbed path only routes its greedy pair resolver through the
#: backend seam (the round loop itself is the two-sub-round numpy fast
#: path), so these rows ledger the resolver's cost, not a full-kernel
#: swap.  Toolchain-dependent rows are conditional: skip-not-fail.
BACKEND_ROWS = ("cext", "numpy")


def _record(
    quick_mode: bool, machine_dependent: list[str] | None = None, **metrics: float
) -> None:
    update_bench_json(
        "batch",
        "quick" if quick_mode else "full",
        _config(quick_mode),
        metrics,
        machine_dependent=machine_dependent,
        conditional=[
            f"batch_trials_per_sec_{backend}"
            for backend in BACKEND_ROWS
            if backend != "numpy"
        ],
    )


def _timed(scenarios, repeats: int = 1, **kwargs):
    """Best-of-``repeats`` wall time — the standard noise filter: external
    contention only ever slows a run down, so the minimum is the cleanest
    estimate of the code's actual cost."""
    best = float("inf")
    reports = []
    for _ in range(repeats):
        start = time.perf_counter()
        reports = run_batch(scenarios, backend="fast", **kwargs)
        best = min(best, time.perf_counter() - start)
    return reports, best


def test_batch_throughput(benchmark, quick_mode):
    """The headline: the default batch path, best of four passes."""
    scenarios = _scenario(2015).trials(TRIALS)
    run_batch(_scenario(7).replace(n=256).trials(4))  # warm the caches

    def measure():
        return _timed(scenarios, repeats=4, workers=1)

    reports, best = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert all(r.converged for r in reports)
    rate = TRIALS / best
    benchmark.extra_info["batch_trials_per_sec"] = round(rate, 3)
    _record(quick_mode, batch_trials_per_sec=rate)


def test_batch_throughput_per_backend(benchmark, quick_mode):
    """One unperturbed-batch row per kernel backend (the resolver seam)."""
    scenarios = _scenario(2015).trials(TRIALS)
    run_batch(_scenario(7).replace(n=256).trials(4))  # warm the caches
    rates: dict[str, float] = {}

    def measure():
        for backend in BACKEND_ROWS:
            if availability(backend) is not None:
                continue
            with use_backend(backend) as actual:
                assert actual == backend, f"{backend} degraded to {actual}"
                reports, elapsed = _timed(scenarios, repeats=2, workers=1)
            assert all(r.converged for r in reports)
            rates[backend] = TRIALS / elapsed
        return rates

    benchmark.pedantic(measure, rounds=1, iterations=1)
    assert "numpy" in rates  # the reference backend can never be skipped
    for backend, rate in rates.items():
        benchmark.extra_info[f"trials_per_sec_{backend}"] = round(rate, 3)
    _record(
        quick_mode,
        **{
            f"batch_trials_per_sec_{backend}": rate
            for backend, rate in rates.items()
        },
    )


def test_batch_engine_chunked(benchmark, quick_mode):
    """Default-policy chunked dispatch vs one monolithic batch.

    ``CHUNK_TRIALS`` trials arrive as two size-aware default chunks (the
    exact shape a 2-worker pool receives) versus a single
    ``batch_chunk=CHUNK_TRIALS`` invocation.  The committed gap is gated
    at <= 5% (strict mode): chunk dispatch reuses the process arena, so
    per-chunk setup is amortized — at this grain the smaller working set
    usually makes the chunked side *faster*.  Both sides run interleaved
    inside one measurement window: the *gap* is the committed quantity,
    and transient contention must hit both alike.
    """
    scenarios = _scenario(2015).trials(CHUNK_TRIALS)

    def measure():
        chunked_best = unchunked_best = float("inf")
        reports = []
        for _ in range(2):
            reports, elapsed = _timed(scenarios, workers=1, repeats=1)
            chunked_best = min(chunked_best, elapsed)
            _, elapsed = _timed(
                scenarios, workers=1, batch_chunk=CHUNK_TRIALS, repeats=1
            )
            unchunked_best = min(unchunked_best, elapsed)
        return reports, chunked_best, unchunked_best

    reports, chunked_best, unchunked_best = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    assert all(r.converged for r in reports)
    chunked_rate = CHUNK_TRIALS / chunked_best
    unchunked_rate = CHUNK_TRIALS / unchunked_best
    benchmark.extra_info["trials_per_sec"] = round(chunked_rate, 3)
    benchmark.extra_info["gap"] = round(1 - chunked_rate / unchunked_rate, 3)
    _record(
        quick_mode,
        batch_chunked_trials_per_sec=chunked_rate,
        batch_unchunked_trials_per_sec=unchunked_rate,
    )


def test_batch_peak_memory(quick_mode):
    """Peak traced bytes per trial of one batch invocation.

    Measured outside the timing tests — tracemalloc slows allocation
    several-fold.  The figure is allocator- and python-version-dependent,
    so the record marks it machine-dependent; the regression checker
    compares it *downward* (more memory = regression) with the standard
    tolerance.
    """
    import tracemalloc

    scenarios = _scenario(77).trials(TRIALS)
    # Warm at the *measured* shape: the arena only recycles buffers whose
    # trailing dims match, so a small-n warmup would leave every buffer to
    # be first-allocated under tracemalloc and swamp the steady-state peak.
    run_batch(_scenario(7).trials(TRIALS))
    tracemalloc.start()
    try:
        run_batch(scenarios, backend="fast", workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _record(
        quick_mode,
        machine_dependent=["batch_peak_bytes_per_trial"],
        batch_peak_bytes_per_trial=peak / TRIALS,
    )


def test_record_chunk_gap(quick_mode):
    """Enforce the chunked-dispatch gate on the record (strict mode only).

    The gate runs under ``REPRO_BENCH_STRICT=1`` — how the committed
    baseline was produced; elsewhere (noisy shared CI runners) the 30%
    regression check against the committed baseline
    (``tools/check_bench_regression.py``) is the enforcement mechanism.
    """
    import json
    import os

    from bench_json import bench_json_path

    data = json.loads(bench_json_path("batch").read_text(encoding="utf-8"))
    metrics = data["metrics"]
    # PR-5 gate: chunked dispatch within 5% of the unchunked number
    # (both sides measured interleaved on the CHUNK_TRIALS workload).
    chunked = metrics.get("batch_chunked_trials_per_sec")
    unchunked = metrics.get("batch_unchunked_trials_per_sec")
    if (
        chunked is not None
        and unchunked is not None
        and os.environ.get("REPRO_BENCH_STRICT") == "1"
    ):
        assert chunked >= 0.95 * unchunked, (
            f"chunked dispatch {chunked:.1f} trials/sec fell more than 5% "
            f"below the unchunked {unchunked:.1f}"
        )
