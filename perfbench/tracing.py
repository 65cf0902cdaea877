"""Spans around the public calls into each layer of the study path.

The benchmark's traced runs install :class:`Tracer` wrappers on the
program's public entry points (study expansion, metric evaluation, the
scheduler's ``run_batch``/``aggregate``/``fold_study_result``, the result
cache, the in-flight dedupe wrapper and the worker-transport unpack) and
restore the originals afterwards.  Nothing under ``src/`` changes: the
wrappers are installed from here, by assigning module attributes, so an
untraced run executes exactly the code a user runs.

A span records its layer, a label, start and end, the span that caused it
(its parent on the same thread) and, for ``run_batch`` spans, the
batch-kernel phase seconds that elapsed inside it
(:func:`repro.fast.profiling.phase_timing`).  A layer's *self* time is the
duration of its spans minus the part their child spans cover.

Limits, stated plainly:

- chunks that run inside pool workers show only as dispatch wall time in
  the parent's ``run_batch`` span: the kernel profile is process-local;
- in the study-service daemon two executor threads share one process-wide
  kernel profile, so the kernel/runner split uses phase totals, not
  per-span shares (see :func:`layer_self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Algorithms whose ``run_batch`` spans count as the baselines layer.
BASELINES = ("polya", "rumor")

#: Algorithms whose ``run_batch`` spans count as the measurement processes.
PROCESSES = ("tagged_recruitment", "initial_split")

#: Kernel-family labels reported as ``kernel.<name>_s``.
KERNEL_FAMILIES = ("simple", "simple_perturbed", "optimal", "quorum")

#: Every layer whose self time a traced run reports, in path order.
LAYERS = (
    "experiments",
    "render",
    "sweep",
    "scheduler",
    "cache",
    "dedupe",
    "runner",
    "transport",
    "kernel",
    "baseline",
    "agent",
    "processes",
    "service",
)


class Tracer:
    """In-memory span recorder; thread-safe, one stack per thread."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._profile = None

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, layer: str, label: str = "") -> Iterator[dict[str, Any]]:
        stack = self._local.__dict__.setdefault("stack", [])
        record: dict[str, Any] = {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "thread": threading.current_thread().name,
            "layer": layer,
            "label": label,
            "child_s": 0.0,
            "kernel_s": 0.0,
        }
        profile = self._profile
        kernel0 = profile.total_seconds if profile is not None else 0.0
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            duration = record["end"] - record["start"]
            if profile is not None:
                record["kernel_s"] = profile.total_seconds - kernel0
            if stack:
                stack[-1]["child_s"] += duration
            with self._lock:
                self.spans.append(record)

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        label: str,
        on_result: Callable[[dict, tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording one span per call.

        ``on_result(record, args, result)`` may add a ``count`` to the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(layer, label) as record:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(record, args, result)
                return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    # -- installation --------------------------------------------------------

    def install(self, profile=None) -> None:
        """Wrap the program's public layer entry points."""
        import repro.api.cache as cache_mod
        import repro.api.scheduler as scheduler_mod
        import repro.api.sweep as sweep_mod
        import repro.api.transport as transport_mod
        import repro.service.client as client_mod
        import repro.service.daemon as daemon_mod
        import repro.service.dedupe as dedupe_mod

        self._profile = profile

        def count_cells(record, args, result):
            record["count"] = len(result)

        for module in (sweep_mod, scheduler_mod, client_mod, daemon_mod):
            self.patch(module, "expand_study", "sweep", "expand", count_cells)
        self.patch(scheduler_mod, "evaluate_metrics", "sweep", "evaluate_metrics")
        self.patch(scheduler_mod, "aggregate", "scheduler", "aggregate")
        for module in (scheduler_mod, client_mod, daemon_mod):
            self.patch(module, "fold_study_result", "scheduler", "fold")

        def cache_hit(record, args, result):
            record["count"] = int(result is not None)

        self.patch(cache_mod.ResultCache, "load", "cache", "load", cache_hit)
        self.patch(cache_mod.ResultCache, "store", "cache", "store")
        self.patch(dedupe_mod.DedupingCache, "load", "dedupe", "load")

        def packed_bytes(record, args, result):
            record["count"] = sum(
                getattr(value, "nbytes", 0) for value in args[0].values()
            )

        self.patch(transport_mod, "unpack_reports", "transport", "unpack", packed_bytes)
        self._patch_run_batch(scheduler_mod)

    def _patch_run_batch(self, scheduler_mod) -> None:
        from repro.api.registry import REGISTRY
        from repro.api.runner import default_batch_chunk, resolve_backend
        from repro.fast.backends import resolve_backend as kernel_backend

        original = scheduler_mod.run_batch
        self._patches.append((scheduler_mod, "run_batch", original))

        @functools.wraps(original)
        def traced_run_batch(scenarios, *args, **kwargs):
            # The scheduler calls run_batch once per cell, and a cell's
            # scenarios differ only in seed and trial index, so the first
            # one resolves (and batches) as every other does.  The
            # scheduler already passes the resolved backend (its cells
            # are resolved when it expands the study); resolving again
            # keeps the label right for an "auto" request from any caller.
            scenarios = list(scenarios)
            first = scenarios[0]
            requested = kwargs.get("backend", args[1] if len(args) > 1 else "auto")
            resolved = resolve_backend(first, requested)
            label = run_batch_label(first, resolved, kernel_backend)
            with self.span("run_batch", label) as record:
                record["count"] = len(scenarios)
                if resolved == "fast" and REGISTRY.get(first.algorithm).supports_batch(first):
                    chunk = kwargs.get("batch_chunk") or default_batch_chunk(first.n)
                    record["chunks"] = -(-len(scenarios) // chunk)
                else:
                    record["chunks"] = len(scenarios)
                return original(scenarios, *args, **kwargs)

        scheduler_mod.run_batch = traced_run_batch

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._profile = None

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install the wrappers and a kernel phase profile for a block."""
        from repro.fast.profiling import phase_timing

        with phase_timing() as profile:
            self.install(profile)
            try:
                yield self
            finally:
                self.uninstall()
                self.kernel_profile = profile.as_dict()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "kernel": getattr(self, "kernel_profile", None)},
                handle,
            )


def run_batch_label(scenario, resolved: str, kernel_backend) -> str:
    """``<class>:<algorithm>[/<kernel backend>]`` for one ``run_batch`` call.

    ``resolved`` is the engine the call runs on, ``"agent"`` or ``"fast"``
    as :func:`repro.api.runner.resolve_backend` gives it.  The class
    separates baselines, agent-engine cells, measurement processes and
    batch kernels; perturbed simple-family cells run the general driver
    over the kernel-backend seam, so they get their own family name.
    """
    algorithm = scenario.algorithm
    if algorithm in BASELINES:
        return f"baseline:{algorithm}"
    if algorithm in PROCESSES:
        return f"processes:{algorithm}"
    if resolved == "agent":
        return f"agent:{algorithm}"
    family = algorithm
    if scenario.fault_plan is not None or scenario.delay_model is not None:
        family = f"{algorithm}_perturbed"
    requested = scenario.params.get("kernel_backend")
    return f"kernel:{family}/{kernel_backend(requested)[0]}"


def summarize(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per ``(layer, label)`` totals: seconds, self seconds, calls, counts."""
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        key = f"{span['layer']}|{span['label']}"
        entry = out.setdefault(
            key,
            {"s": 0.0, "self_s": 0.0, "kernel_s": 0.0, "calls": 0, "count": 0, "chunks": 0},
        )
        duration = span["end"] - span["start"]
        entry["s"] += duration
        entry["self_s"] += duration - span["child_s"]
        entry["kernel_s"] += span["kernel_s"]
        entry["calls"] += 1
        entry["count"] += span.get("count", 0)
        entry["chunks"] += span.get("chunks", 0)
    return out


def layer_self_times(summary: dict[str, dict[str, float]], kernel_total: float) -> dict[str, float]:
    """Self seconds per layer of :data:`LAYERS`.

    ``run_batch`` spans split by class.  Baseline, agent and process spans
    belong to their layer, less any kernel phase seconds measured inside
    them.  The kernel layer is every measured phase second
    (``kernel_total``); what remains of the batch-kernel spans (grouping,
    dispatch, waiting on pool workers, rebuilding reports) is the
    runner's.  Phase totals rather than per-span shares, because in the
    daemon two executor threads feed one profile.
    """
    selfs = dict.fromkeys(LAYERS, 0.0)
    kernel_spans = inside_others = 0.0
    for key, entry in summary.items():
        layer, label = key.split("|", 1)
        if layer != "run_batch":
            selfs[layer] = selfs.get(layer, 0.0) + entry["self_s"]
            continue
        kind = label.split(":", 1)[0]
        if kind == "kernel":
            kernel_spans += entry["self_s"]
        else:
            selfs[kind] += entry["self_s"] - entry["kernel_s"]
            inside_others += entry["kernel_s"]
    selfs["kernel"] = kernel_total
    selfs["runner"] = max(0.0, kernel_spans - (kernel_total - inside_others))
    return selfs
