"""Metric definitions: end-to-end figures from passes, per-layer from a trace.

Every run emits every metric ``BENCHMARK.json`` declares for its mode.
The job metrics (``jobs_per_s``, ``job_p50_ms``, ``job_p90_ms``) describe
``service_mix``, whose jobs overlap.  On the other two workloads a job is
the whole pass, so there they restate :func:`pass_wall` exactly: they can
neither move apart from ``wall_s`` nor add noise of their own.  A layer a
workload does not exercise reads 0 in the traced output.
"""

from __future__ import annotations

import resource
import statistics
from typing import Any

from repro.experiments import RUNNERS
from repro.fast.profiling import PHASES
from tracing import KERNEL_FAMILIES, LAYERS, layer_self_times, summarize


def peak_rss_mb() -> float:
    """Max resident set of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def pass_wall(passes) -> float:
    """Wall time of one pass, robust to slow stretches of the machine.

    Where a pass is a sequence of steps (trials, cells and the rest of
    each study; see ``workloads.StepClock``), it is the sum over steps of
    each step's fastest time across the passes; otherwise the median pass
    wall time.  The fastest, not the median: on a shared host a CPU runs
    at full speed or at down to half of it as its neighbours load the
    core, switching every few milliseconds in calm spells and staying slow
    for a minute in busy ones.  Every pass does the same deterministic
    work, so a step's fastest time is the program's own time for it (the
    ``timeit`` convention); steps of milliseconds find full speed in some
    pass even when whole passes never run at it.  On one 2-CPU host the
    sum of per-step minima over windows of three passes spread 0.08
    (IQR/median), against 0.10 for the median pass wall time; over five
    passes 0.02 against 0.08.
    """
    if passes[0].steps is None:
        return statistics.median(p.wall_s for p in passes)
    return sum(min(runs) for runs in zip(*(p.steps for p in passes), strict=True))


def end_to_end(passes, setup_samples: list[float], rss_mb: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of a run.

    Every pass does the same work, so throughput is that work over
    :func:`pass_wall`.  Where a pass is a set of overlapping jobs, which
    client runs which job differs from pass to pass, so every job of
    every pass is a latency sample; elsewhere the one job is the pass.
    """
    wall = pass_wall(passes)
    latencies = [x for p in passes for x in p.latencies]
    if latencies:
        jobs = len(passes[0].latencies)
        p50 = statistics.median(latencies)
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    else:
        jobs, p50, p90 = 1, wall, wall
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "trials_per_s": (statistics.median(p.trials for p in passes) / wall, "trials/s"),
        "jobs_per_s": (jobs / wall, "jobs/s"),
        "job_p50_ms": (1000.0 * p50, "ms"),
        "job_p90_ms": (1000.0 * p90, "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def _sum(summary, layer: str, label: str | None = None, field: str = "s") -> float:
    return sum(
        (
            entry[field]
            for key, entry in summary.items()
            if key.split("|", 1)[0] == layer
            and (label is None or key.split("|", 1)[1].startswith(label))
        ),
        0.0,
    )


def per_layer(
    spans: list[dict[str, Any]],
    kernel_profile: dict[str, Any] | None,
    base_s: float,
    overhead_s: float,
    service: dict[str, Any] | None = None,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from one traced pass.

    ``base_s`` is the time the layers' self times should add up to: the
    traced pass's wall time, or for ``service_mix`` the summed job
    latencies (two clients overlap, so their wall time would undercount).
    ``spans`` may hold spans of several processes (the load generator's
    and the daemon's).  ``service`` carries the daemon's ``/stats`` and job
    counters.
    """
    summary = summarize(spans)
    m: dict[str, tuple[float, str]] = {}
    for eid in RUNNERS:
        m[f"study.{eid}_s"] = (summary.get(f"experiments|{eid}", {}).get("s", 0.0), "s")
    m["render.s"] = (_sum(summary, "render"), "s")
    m["baseline.polya_s"] = (_sum(summary, "run_batch", "baseline:polya"), "s")
    m["baseline.polya_trials"] = (_sum(summary, "run_batch", "baseline:polya", "count"), "count")
    m["baseline.rumor_s"] = (_sum(summary, "run_batch", "baseline:rumor"), "s")
    m["agent.s"] = (_sum(summary, "run_batch", "agent:"), "s")
    m["agent.trials"] = (_sum(summary, "run_batch", "agent:", "count"), "count")
    m["processes.s"] = (_sum(summary, "run_batch", "processes:"), "s")
    m["processes.trials"] = (_sum(summary, "run_batch", "processes:", "count"), "count")
    m["sweep.expand_s"] = (_sum(summary, "sweep", "expand"), "s")
    m["sweep.cells"] = (_sum(summary, "sweep", "expand", "count"), "count")
    m["sweep.evaluate_metrics_s"] = (_sum(summary, "sweep", "evaluate_metrics"), "s")
    m["fold.s"] = (_sum(summary, "scheduler", "fold"), "s")
    m["aggregate.s"] = (_sum(summary, "scheduler", "aggregate"), "s")

    chunks = _sum(summary, "run_batch", None, "chunks")
    pooled = _sum(summary, "transport", "unpack", "calls")
    m["runner.run_batch_s"] = (_sum(summary, "run_batch"), "s")
    m["runner.calls"] = (_sum(summary, "run_batch", None, "calls"), "count")
    m["runner.chunks"] = (chunks, "count")
    m["runner.parallel_chunk_ratio"] = (pooled / chunks if chunks else 0.0, "ratio")
    m["transport.unpack_s"] = (_sum(summary, "transport", "unpack"), "s")
    m["transport.bytes"] = (_sum(summary, "transport", "unpack", "count"), "B")

    phases = (kernel_profile or {}).get("phases", {})
    for phase in PHASES:
        m[f"kernel.{phase}_s"] = (phases.get(phase, {}).get("seconds", 0.0), "s")
    m["kernel.rounds"] = ((kernel_profile or {}).get("rounds", 0), "count")
    m["kernel.batches"] = ((kernel_profile or {}).get("batches", 0), "count")
    for family in KERNEL_FAMILIES:
        m[f"kernel.{family}_s"] = (_sum(summary, "run_batch", f"kernel:{family}/"), "s")

    loads = _sum(summary, "cache", "load", "calls")
    m["cache.load_s"] = (_sum(summary, "cache", "load"), "s")
    m["cache.loads"] = (loads, "count")
    m["cache.hit_ratio"] = (
        _sum(summary, "cache", "load", "count") / loads if loads else 0.0,
        "ratio",
    )
    m["cache.store_s"] = (_sum(summary, "cache", "store"), "s")
    m["cache.stores"] = (_sum(summary, "cache", "store", "calls"), "count")

    service = service or {}
    cache_stats = (service.get("stats") or {}).get("cache") or {}
    m["store.busy_retries"] = (cache_stats.get("busy_retries", 0), "count")
    m["dedupe.waits"] = (cache_stats.get("dedupe_waits", 0), "count")
    run_s = service.get("run_s", 0.0)
    overhead = service.get("latency_s", 0.0) - run_s if service else 0.0
    m["service.run_s"] = (run_s, "s")
    m["service.overhead_s"] = (overhead, "s")
    m["service.jobs"] = (service.get("jobs", 0), "count")

    selfs = layer_self_times(summary, (kernel_profile or {}).get("total_seconds", 0.0))
    if service:
        # The client's span around run_study also covers the daemon's job
        # run time, which the daemon-side spans account for; the service
        # layer's own share is the queue, HTTP and status-poll time.
        selfs["service"] = max(0.0, selfs["service"] - run_s)
    for layer in LAYERS:
        m[f"self.{layer}_s"] = (selfs.get(layer, 0.0), "s")
    m["trace.unattributed_s"] = (base_s - sum(selfs.values()), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
