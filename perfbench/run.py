"""The repository's end-to-end benchmark: one command per workload run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload reproduce_quick --seed 0 --seconds 35 --trace 0

Workloads: ``reproduce_quick``, ``kernel_sweep``, ``service_mix`` (see
``workloads.py`` and ``README.md``).  A run pins every ``REPRO_*`` knob,
sets up, repeats the workload's fixed pass while one more fits in
``--seconds`` (at least three times), checks the outputs, and prints one
line per metric followed by a final JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` instead runs
one untraced and one traced pass and reports the per-layer metrics, the
unattributed remainder and the tracing overhead.  ``--tiny`` shrinks every
workload for the self-test.  Everything the run writes stays under
``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

WORKLOADS = ("reproduce_quick", "kernel_sweep", "service_mix")

#: Passes per run at the least, however long one pass takes: with three,
#: each step has three times to take the fastest of, and a per-job median
#: drops one pass caught in a slow stretch of the machine.
MIN_PASSES = 3

#: Set-up measurements per run (the reported set-up time is their median).
SETUP_SAMPLES = 3

#: Environment the program runs under.  Every other ``REPRO_*`` variable
#: (cache dir, service URL, chaos plan, sanitizer, spill, arena trim,
#: cache store, ...) is removed, which switches those features off.
PINNED_ENV = {
    "REPRO_WORKERS": "1",
    "REPRO_FAST_BACKEND": "auto",
    "REPRO_TILE_ANTS": "auto",
    "REPRO_SHM_TRANSPORT": "0",
}


def pin_environment() -> dict[str, str]:
    """Pin the program's knobs and keep every file it writes in the checkout."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ.update(PINNED_ENV)
    os.environ["REPRO_CEXT_CACHE"] = str(BUILD / "cext")
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    tempfile.tempdir = None
    sys.path.insert(0, str(ROOT / "src"))
    return {key: value for key, value in os.environ.items() if key.startswith("REPRO_")}


def provenance(seed: int, pinned: dict[str, str]) -> dict:
    import numpy

    from repro.fast.backends import resolve_backend
    from repro.fast.tiling import resolve_tile_width

    return {
        "seed": seed,
        "kernel_backend": resolve_backend()[0],
        "tile_width_at_n65536": resolve_tile_width(65536),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "env": pinned,
    }


def measure(run_pass, seconds: float) -> list:
    """Passes while one more, at the mean pass time so far, ends within
    ``seconds``, and at least :data:`MIN_PASSES`: the run measures for
    ``seconds`` unless three passes take longer."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass())
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def setup_times(workload: str, samples: int) -> list[float]:
    from workloads import probe_setup

    return [probe_setup(workload) for _ in range(samples)]


# -- the three workloads ---------------------------------------------------------


def run_reproduce(args) -> dict:
    import workloads as w
    from metrics import end_to_end, peak_rss_mb, per_layer
    from tracing import Tracer

    order = w.runner_order(args.seed, args.tiny)
    if args.trace:
        # Warm lazy imports, so the untraced pass is as warm as the traced
        # one.  A measured run needs no warm-up: the fastest time of each
        # step across its passes leaves the first, cold one out.
        w.reproduce_pass(w.TINY_RUNNERS)
        untraced = w.reproduce_pass(order)
        tracer = Tracer()
        with tracer.installed():
            traced = w.reproduce_pass(order, tracer)
        passes = [untraced, traced]
        metrics = per_layer(
            tracer.spans,
            tracer.kernel_profile,
            base_s=traced.wall_s,
            overhead_s=traced.wall_s - untraced.wall_s,
        )
        tracer.dump(trace_path(args))
    else:
        setup = setup_times(args.workload, 1 if args.tiny else SETUP_SAMPLES)
        passes = measure(lambda: w.reproduce_pass(order), args.seconds)
        metrics = end_to_end(passes, setup, peak_rss_mb())
    return {
        "passes": passes,
        "metrics": metrics,
        "checks": w.check_reproduce(passes),
    }


def run_sweep(args) -> dict:
    import workloads as w
    from metrics import end_to_end, peak_rss_mb, per_layer
    from tracing import Tracer

    study = w.kernel_study(args.seed, args.tiny)
    if not args.trace:
        setup = setup_times(args.workload, 1 if args.tiny else SETUP_SAMPLES)
    pool = w.warm_pool(w.SWEEP_WORKERS)
    try:
        if args.trace:
            # Warm lazy imports and kernel buffers here and in the pool
            # workers, so the untraced pass is as warm as the traced one.
            w.sweep_pass(w.kernel_study(args.seed, tiny=True), w.SWEEP_WORKERS, pool)
            untraced = w.sweep_pass(study, w.SWEEP_WORKERS, pool)
            tracer = Tracer()
            with tracer.installed():
                traced = w.sweep_pass(study, w.SWEEP_WORKERS, pool)
            passes = [untraced, traced]
        else:
            passes = measure(lambda: w.sweep_pass(study, w.SWEEP_WORKERS, pool), args.seconds)
    finally:
        pool.close()
    if args.trace:
        metrics = per_layer(
            tracer.spans,
            tracer.kernel_profile,
            base_s=traced.wall_s,
            overhead_s=traced.wall_s - untraced.wall_s,
        )
        tracer.dump(trace_path(args))
    else:
        metrics = end_to_end(passes, setup, peak_rss_mb())
    # The reference runs after timing, serially and under a tracer of its
    # own, so the check also shows that tracing leaves the results alone.
    with Tracer().installed():
        reference = w.reference_pass(study)
    return {
        "passes": passes,
        "metrics": metrics,
        "checks": w.check_sweep(passes, reference),
    }


def run_service(args) -> dict:
    import workloads as w
    from metrics import end_to_end, peak_rss_mb, per_layer
    from tracing import Tracer

    jobs = w.service_jobs(args.seed, args.tiny)
    workdir = BUILD / "tmp"
    if args.trace:
        untraced = w.service_pass(jobs, workdir)
        tracer = Tracer()
        daemon_trace = workdir / f"daemon-spans-{os.getpid()}.json"
        try:
            with tracer.installed():
                traced = w.service_pass(jobs, workdir, tracer, daemon_trace)
            daemon = json.loads(daemon_trace.read_text(encoding="utf-8"))
        finally:
            daemon_trace.unlink(missing_ok=True)
        passes = [untraced, traced]
        service = {**traced.extra, "jobs": len(traced.latencies)}
        metrics = per_layer(
            tracer.spans + daemon["spans"],
            daemon["kernel"],
            base_s=traced.extra["latency_s"],
            overhead_s=traced.wall_s - untraced.wall_s,
            service=service,
        )
        tracer.spans.extend(daemon["spans"])
        tracer.kernel_profile = daemon["kernel"]
        tracer.dump(trace_path(args))
    else:
        # The daemon each pass starts is a set-up sample as well.
        setup = setup_times(args.workload, 0)
        passes = measure(lambda: w.service_pass(jobs, workdir), args.seconds)
        setup += [p.extra["setup_s"] for p in passes]
        metrics = end_to_end(passes, setup, peak_rss_mb())
    return {
        "passes": passes,
        "metrics": metrics,
        "checks": w.check_service(jobs, passes),
    }


def trace_path(args) -> Path:
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    return traces / f"{args.workload}-seed{args.seed}.json"


RUNNERS = {
    "reproduce_quick": run_reproduce,
    "kernel_sweep": run_sweep,
    "service_mix": run_service,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    pinned = pin_environment()
    # Compiles the bytecode the set-up probes and the daemon load, and
    # (through provenance) builds the C extension on a fresh checkout, so
    # no set-up sample pays for either.
    import repro.experiments  # noqa: F401
    import repro.service.__main__  # noqa: F401

    print("provenance: " + json.dumps(provenance(args.seed, pinned)), flush=True)
    outcome = RUNNERS[args.workload](args)
    passes = outcome["passes"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for name, ok in outcome["checks"]:
        print(f"check: {'ok' if ok else 'FAILED'}: {name}")
    samples = sum(len(p.latencies) for p in passes)
    print(f"passes: {len(passes)}, job latency samples: {samples}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name} = {value} {unit}")
    print(f"failed_ratio = {failed / attempted if attempted else 0.0} ratio ({failed}/{attempted})")
    correct = failed == 0 and all(ok for _, ok in outcome["checks"])
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
