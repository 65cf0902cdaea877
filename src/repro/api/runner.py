"""Scenario execution: one entrypoint over both engines, serial or parallel.

:func:`run` turns a :class:`~repro.api.scenario.Scenario` into a
:class:`~repro.api.report.RunReport` on either engine; :func:`run_batch`
additionally detects *homogeneous* runs of scenarios (same workload,
differing only in seed/trial index), simulates them trial-parallel through
the registered batch kernels (:mod:`repro.fast.batch`) in chunks, and fans
chunks and leftovers out over worker processes along one path: the
supervised dispatcher (:func:`_dispatch_supervised`, configured by an
:class:`ExecutionPolicy`), with batch chunks shipped back as packed
columns (:mod:`repro.api.transport`).  Because every scenario's
randomness is a pure function of its ``(seed, trial_index)`` (see
:class:`~repro.sim.rng.RandomSource`) and the batch kernels draw strictly
per trial, batch results are bit-identical for any worker count, chunk
size, and grouping — parallelism and batching are execution details, never
a semantics change.

Backend selection (``backend="auto"``):

1. use the registered fast kernel if it exists and implements every
   feature tag the scenario requests (see
   :func:`repro.api.registry.scenario_features` — fault plans, delay
   models, the noise kinds, non-default criteria and histories are all
   declared feature-granularly per kernel);
2. otherwise fall back to the agent engine, recording the missing feature
   tags in the report's ``extras["agent_fallback"]``;
3. raise :class:`~repro.exceptions.ConfigurationError` if neither engine
   can honor the scenario (an explicit ``backend=`` likewise raises rather
   than silently substituting, naming the unsupported features).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import knobs
from repro.api.registry import REGISTRY, AlgorithmRegistry, criterion_factory
from repro.api.report import RunReport
from repro.api.scenario import Scenario
from repro.exceptions import (
    ChunkTimeout,
    ConfigurationError,
    WorkerCrash,
    is_retryable,
)
from repro.fast.tiling import resolve_tile_width
from repro.sim.engine import RoundHook
from repro.sim.run import TrialStats, run_trial

BACKENDS = ("auto", "agent", "fast")


def default_workers() -> int:
    """Worker processes from ``$REPRO_WORKERS`` (default 1).

    The one shared reader for every entry point (experiment runners, the
    ``repro.api`` CLI, :func:`repro.api.run_study`).  Anything but an
    integer >= 1 raises :class:`~repro.exceptions.ConfigurationError`
    (:mod:`repro.knobs`).
    """
    return knobs.workers()


def resolve_backend(
    scenario: Scenario,
    backend: str = "auto",
    registry: AlgorithmRegistry = REGISTRY,
) -> str:
    """The concrete backend (``"agent"`` or ``"fast"``) a run will use."""
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}"
        )
    entry = registry.get(scenario.algorithm)
    if backend == "auto":
        if entry.supports_fast(scenario):
            return "fast"
        if entry.has_agent:
            return "agent"
        raise ConfigurationError(
            f"algorithm {scenario.algorithm!r} has no agent engine and its "
            "fast kernel does not support this scenario's features"
        )
    if backend == "fast":
        if not entry.has_fast:
            raise ConfigurationError(
                f"algorithm {scenario.algorithm!r} has no fast kernel"
            )
        missing = entry.missing_fast_features(scenario)
        if missing:
            raise ConfigurationError(
                f"the fast kernel for {scenario.algorithm!r} does not "
                f"support this scenario's {', '.join(missing)}; use "
                "backend='agent'"
            )
        return "fast"
    if not entry.has_agent:
        raise ConfigurationError(
            f"algorithm {scenario.algorithm!r} has no agent-engine "
            "implementation (it is a standalone reference process)"
        )
    return "agent"


def run(
    scenario: Scenario,
    backend: str = "auto",
    hooks: Sequence[RoundHook] = (),
    registry: AlgorithmRegistry = REGISTRY,
) -> RunReport:
    """Execute one scenario and return its normalized report.

    On the fast engine the scenario runs through its algorithm's batch
    kernel as a batch of one — bit-identical to the same trial inside any
    :func:`run_batch` chunk.  ``hooks`` (per-round callbacks) exist only on
    the agent engine; passing any forces agent execution under
    ``backend="auto"``.

    When ``backend="auto"`` falls back to the agent engine even though a
    fast kernel is registered, the report's ``extras["agent_fallback"]``
    names the feature tags (or ``"hooks"``) that forced the fallback — the
    observable answer to "why was this run slow?".
    """
    requested_auto = backend == "auto"
    if hooks and backend == "auto":
        backend = "agent"
    resolved = resolve_backend(scenario, backend, registry)
    if resolved == "fast":
        if hooks:
            raise ConfigurationError("round hooks require backend='agent'")
        return registry.get(scenario.algorithm).batch_kernel([scenario])[0]

    entry = registry.get(scenario.algorithm)
    fallback: tuple[str, ...] = ()
    if requested_auto and entry.has_fast:
        fallback = ("hooks",) if hooks else entry.missing_fast_features(scenario)
    factory, default_criterion = entry.agent_builder(scenario)
    if scenario.criterion is not None:
        criterion = criterion_factory(scenario.criterion)
    else:
        criterion = default_criterion
    result = run_trial(
        factory,
        scenario.n,
        scenario.nests,
        seed=scenario.source(),
        max_rounds=scenario.max_rounds,
        criterion_factory=criterion,
        noise=scenario.noise,
        fault_plan=scenario.fault_plan,
        delay_model=scenario.delay_model,
        hooks=hooks,
        keep_history=scenario.record_history,
    )
    extras = {"agent_fallback": list(fallback)} if fallback else None
    return RunReport.from_simulation(scenario, result, extras=extras)


#: Classic default chunk (the ``n = 4096`` operating point of the
#: size-aware policy below); kept as the fallback for degenerate ``n``.
DEFAULT_BATCH_CHUNK = 64

#: Target per-chunk state volume: a chunk holds ``O(chunk * n)`` elements
#: per state plane, so the default chunk is sized to keep one plane around
#: this many elements (~2 MB of float64) — small enough to stay
#: cache-friendly and bound worker memory, large enough to amortize the
#: per-chunk round-loop overhead the arena doesn't absorb.  Results never
#: depend on the choice.
BATCH_CHUNK_TARGET_ELEMS = 262_144

#: Bounds of the size-aware default (an explicit ``batch_chunk`` is never
#: clamped).
MIN_DEFAULT_CHUNK, MAX_DEFAULT_CHUNK = 16, 512

#: Hard per-plane state budget: a chunk's ``(chunk, n)`` state planes are
#: capped at this many elements (32 MB at int32), because — unlike the
#: per-round scratch, which tiling bounds at ``O(chunk * tile)`` — per-ant
#: *state* is irreducibly ``chunk * n``.  At million-ant scale this is the
#: binding term (8 trials/chunk at n = 10^6); past ``n = 2**23`` chunks
#: become single trials rather than blowing the budget.
MAX_STATE_ELEMS = 1 << 23


def default_batch_chunk(n: int) -> int:
    """The default trials-per-chunk for colonies of ``n`` ants.

    Two budgets intersect (docs/PERFORMANCE.md §8): the classic
    ``~BATCH_CHUNK_TARGET_ELEMS`` scratch budget, sized over the *tile*
    width once ant-axis tiling kicks in (so huge-n batches no longer
    collapse toward the ``MIN_DEFAULT_CHUNK`` floor on scratch grounds
    alone), and the :data:`MAX_STATE_ELEMS` cap on the untileable
    ``(chunk, n)`` state planes, which owns the large-n regime and may
    take the chunk below ``MIN_DEFAULT_CHUNK`` — all the way to one trial
    per chunk for gargantuan colonies.  Results never depend on the
    choice (chunking is bit-invisible); only peak memory and overhead do.
    """
    if n < 1:
        return DEFAULT_BATCH_CHUNK
    scratch_width = resolve_tile_width(n) or n
    scratch_term = max(
        MIN_DEFAULT_CHUNK,
        min(MAX_DEFAULT_CHUNK, BATCH_CHUNK_TARGET_ELEMS // scratch_width),
    )
    return max(1, min(scratch_term, MAX_STATE_ELEMS // n))


@dataclass(frozen=True)
class ExecutionPolicy:
    """How parallel dispatch (and the cell scheduler) handles failure.

    Every parallel :func:`run_batch` call is supervised under a policy;
    the default one is ``ExecutionPolicy()``.  Chunks get deadlines only
    if ``chunk_timeout`` is set (``None`` waits forever — a deadline that
    could fire on a slow-but-healthy machine would be a false positive),
    substrate faults retry with deterministic exponential backoff, and
    :class:`~repro.api.scheduler.CellScheduler` quarantines a hopeless
    cell rather than aborting the study.

    ``sleep`` exists for tests: deterministic backoff schedules are
    asserted by injecting a recorder instead of actually sleeping.
    """

    #: Per-chunk deadline in seconds (``None``: no deadline).
    chunk_timeout: float | None = None
    #: Chunk-level retries after a worker death / blown deadline.
    max_retries: int = 2
    #: Backoff before retry ``k`` is ``backoff_base * backoff_factor**(k-1)``,
    #: capped at ``backoff_max`` seconds.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    #: Cell-level attempts before degradation/quarantine.
    quarantine_after: int = 2
    #: Fall back to the agent engine for a repeatedly-crashing fast cell.
    degrade_to_agent: bool = True
    #: Record exhausted cells as failure rows (False: raise CellQuarantined).
    quarantine: bool = True
    #: Injection point for the backoff sleep (tests record, prod sleeps).
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ConfigurationError(
                f"chunk_timeout must be positive, got {self.chunk_timeout}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0:
            raise ConfigurationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max < 0:
            raise ConfigurationError(
                f"backoff_max must be >= 0, got {self.backoff_max}"
            )
        if self.quarantine_after < 1:
            raise ConfigurationError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based; 0 for <= 0)."""
        if attempt <= 0 or self.backoff_base == 0:
            return 0.0
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )


class WorkerPool:
    """A persistent process pool reused across ``run_batch`` calls.

    ``run_study`` used to fork a fresh :class:`ProcessPoolExecutor` per
    cache-missing cell; at study scale that re-pays worker startup (and
    registry import) hundreds of times.  A :class:`WorkerPool` owns one
    executor, created lazily on the first parallel dispatch and reused
    until :meth:`close` — pass it to :func:`run_batch`/
    :func:`repro.api.run_study` via ``pool=``, or use it as a context
    manager.  Results are bit-identical with and without a pool (pinned
    by the golden-digest and pool-determinism suites).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None

    def executor(self) -> ProcessPoolExecutor:
        """The lazily-created executor (spawns workers on first use)."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    @property
    def started(self) -> bool:
        """Whether worker processes exist yet."""
        return self._executor is not None

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def kill(self) -> None:
        """Forcibly terminate the workers and reap them (idempotent).

        The supervised dispatcher's recovery primitive: after a chunk
        deadline or a ``BrokenProcessPool`` the surviving workers cannot
        be trusted (one may be wedged mid-chunk), so the whole cohort is
        SIGKILLed and joined.  The pool object stays usable: the next
        :meth:`executor` call respawns a fresh cohort.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = list((getattr(executor, "_processes", None) or {}).values())
        for proc in processes:
            try:
                proc.kill()
            except Exception:  # pragma: no cover - already-reaped worker
                pass
        executor.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            try:
                proc.join(5.0)
            except Exception:  # pragma: no cover - concurrent reap
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

#: One unit of batch work: ``("single", scenario, backend)`` runs one
#: agent-engine scenario through :func:`run`; ``("batch", [scenarios])``
#: runs one homogeneous chunk through the algorithm's batch kernel.
_Task = tuple


def _batch_group_key(scenario: Scenario) -> str:
    """Canonical identity of a scenario modulo its randomness.

    Two scenarios share a key iff they differ only in ``seed`` /
    ``trial_index`` — the definition of a homogeneous batch.  The JSON form
    has a fixed key order, so string equality is scenario equality.
    (Zeroing the randomness fields on the dict, not via ``replace()``,
    skips re-running dataclass validation per scenario — this key is
    computed for every element of every batch.)
    """
    data = scenario.to_dict()
    data["seed"] = 0
    data["trial_index"] = None
    return json.dumps(data)


def _run_task(task: _Task) -> list[RunReport]:
    """Top-level task target (must be picklable by multiprocessing)."""
    if task[0] == "single":
        _, scenario, backend = task
        return [run(scenario, backend=backend)]
    _, chunk = task
    entry = REGISTRY.get(chunk[0].algorithm)
    return entry.batch_kernel(chunk)


def _run_task_packed(
    task: _Task,
    chaos_scope: str | None = None,
    chaos_task: int = 0,
    attempt: int = 0,
) -> object:
    """Worker-side target: batch chunks return packed numpy columns.

    Packing drops the per-report Python object graph from the result pipe
    (the parent rebuilds reports from the scenarios it already holds).
    Singles still return their reports directly — they can carry
    agent-engine payloads the packer doesn't speak.

    This is also the chaos-injection point (:mod:`repro.api.chaos`): it
    only ever runs in worker processes, so an injected SIGKILL exercises
    the supervision path without touching the parent.
    """
    from repro.api import chaos
    from repro.api.transport import pack_reports

    chaos.maybe_inject(chaos_scope, chaos_task, attempt, task[0], "start")
    reports = _run_task(task)
    if task[0] != "batch":
        return reports
    packed = pack_reports(reports)
    chaos.maybe_inject(chaos_scope, chaos_task, attempt, task[0], "result")
    return packed


def _resolve_task_result(result: object, task: _Task) -> list[RunReport]:
    """Parent-side inverse of :func:`_run_task_packed`."""
    from repro.api.transport import unpack_reports

    if isinstance(result, list):
        return result
    return unpack_reports(result, task[1])


def _dispatch_supervised(
    pool: WorkerPool,
    tasks: list[_Task],
    policy: ExecutionPolicy,
    chaos_scope: str | None = None,
) -> list[object]:
    """Run tasks under supervision: deadlines, pool respawn, chunk retry.

    Each round submits every still-pending chunk, then harvests results
    with a per-chunk deadline (``policy.chunk_timeout``).  A blown
    deadline or a dead worker (``BrokenProcessPool``) marks the round's
    unfinished chunks failed with a *retryable* error, SIGKILLs and
    respawns the pool, and — after a deterministic exponential backoff —
    retries them.  Because a chunk is a pure function of its scenarios'
    ``(seed, trial_index)`` streams, a retry reproduces the same bits, so
    recovery is invisible in the results.  A chunk that exhausts
    ``policy.max_retries`` re-raises its last failure.  A *non-retryable*
    task exception (a deterministic kernel crash) is fatal immediately —
    retrying a pure function that raised is wasted work — and cancels the
    call's queued chunks but leaves the pool alone: its workers are
    healthy, and a shared pool may be running other callers' chunks.
    """
    from concurrent.futures import BrokenExecutor

    results: list[object] = [None] * len(tasks)
    attempts = [0] * len(tasks)
    pending = list(range(len(tasks)))

    while pending:
        executor = pool.executor()
        futures: dict[int, object] = {}
        try:
            for i in pending:
                futures[i] = executor.submit(
                    _run_task_packed,
                    tasks[i],
                    chaos_scope=chaos_scope,
                    chaos_task=i,
                    attempt=attempts[i],
                )
        except BrokenExecutor:
            pass  # handled below: unsubmitted chunks fail this round
        pool_dead = len(futures) < len(pending)
        failures: dict[int, BaseException] = {}
        for i in pending:
            future = futures.get(i)
            if future is None:
                failures[i] = WorkerCrash(
                    f"worker pool broke before chunk {i} could be dispatched"
                )
                continue
            if pool_dead:
                # Salvage chunks that finished cleanly before the pool
                # died; everything else in this round is retried.
                if (
                    future.done()
                    and not future.cancelled()
                    and future.exception() is None
                ):
                    results[i] = future.result()
                else:
                    future.cancel()
                    failures[i] = WorkerCrash(
                        f"chunk {i} lost when the worker pool died "
                        f"(attempt {attempts[i]})"
                    )
                continue
            try:
                results[i] = future.result(timeout=policy.chunk_timeout)
            except TimeoutError:
                failures[i] = ChunkTimeout(
                    f"chunk {i} exceeded its {policy.chunk_timeout}s "
                    f"deadline (attempt {attempts[i]})",
                    timeout=policy.chunk_timeout,
                )
                pool_dead = True
            except BrokenExecutor as exc:
                failures[i] = WorkerCrash(
                    f"worker died running chunk {i} "
                    f"(attempt {attempts[i]}): {exc!r}"
                )
                pool_dead = True
            except BaseException as exc:
                if not is_retryable(exc):
                    for queued in futures.values():
                        queued.cancel()
                    raise
                failures[i] = exc
        if pool_dead:
            pool.kill()
        pending = []
        for i, exc in failures.items():
            attempts[i] += 1
            if attempts[i] > policy.max_retries:
                raise exc
            pending.append(i)
        if pending:
            delay = policy.backoff_delay(max(attempts[i] for i in pending))
            if delay > 0:
                policy.sleep(delay)
    return results


def run_batch(
    scenarios: Iterable[Scenario],
    workers: int = 1,
    backend: str = "auto",
    batch_chunk: int | None = None,
    pool: "WorkerPool | None" = None,
    policy: ExecutionPolicy | None = None,
    chaos_scope: str | None = None,
) -> list[RunReport]:
    """Run many scenarios; reports come back in input order.

    Homogeneous runs of scenarios — same algorithm and workload, differing
    only in ``seed``/``trial_index`` — are detected and dispatched to the
    algorithm's trial-parallel batch kernel in chunks whenever the
    resolved backend is ``fast``; agent-engine scenarios run one by one
    through :func:`run`.  ``workers > 1`` fans the chunks and the agent
    singles out over a process pool; pass a :class:`WorkerPool` via
    ``pool=`` to reuse worker processes across calls (``pool`` takes
    precedence over ``workers``).  ``batch_chunk``
    defaults to the size-aware :func:`default_batch_chunk` policy per
    group.  Workers ship batch chunks back as packed numpy columns
    (:mod:`repro.api.transport`).

    Parallel dispatch is always supervised (see
    :func:`_dispatch_supervised`) under ``policy`` — an
    :class:`ExecutionPolicy`, by default ``ExecutionPolicy()``: per-chunk
    deadlines, automatic pool respawn after a worker death, and
    deterministic chunk retry with exponential backoff.
    ``chaos_scope`` labels this call for the deterministic fault-injection
    harness (:mod:`repro.api.chaos`); it has no effect unless a
    ``$REPRO_CHAOS`` plan targets it.  Every call reads the plan, so a
    malformed one fails a serial run too, though its hooks fire only in
    pool workers.

    Each trial derives its randomness from its own ``(seed, trial_index)``
    and the batch kernels consume those streams per trial, so the reports
    are **bit-identical for every** ``workers``, ``batch_chunk``, ``pool``
    and ``policy`` value — supervised recovery included — and identical
    to running each scenario alone — :mod:`tests.test_batch_engine`, the
    golden-digest suite and :mod:`tests.test_chaos` pin this down.
    """
    batch = list(scenarios)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if batch_chunk is not None and batch_chunk < 1:
        raise ConfigurationError(f"batch_chunk must be >= 1, got {batch_chunk}")
    # Resolve backends and read the chaos plan up front so configuration
    # errors surface immediately (and identically) regardless of worker count.
    payloads = [(s, resolve_backend(s, backend)) for s in batch]
    knobs.chaos()

    # Partition into batchable fast groups (keyed by everything but
    # randomness) and agent singles, remembering each input position.
    groups: dict[str, list[int]] = {}
    tasks: list[_Task] = []
    task_indices: list[list[int]] = []
    for index, (scenario, resolved) in enumerate(payloads):
        if resolved == "fast":
            groups.setdefault(_batch_group_key(scenario), []).append(index)
        else:
            # Singles re-run under the *requested* backend (already resolved
            # above, so no new errors can surface): an "auto" request that
            # fell back to the agent engine then records its fallback
            # reason on the report, exactly as a lone run() call would.
            tasks.append(("single", scenario, backend))
            task_indices.append([index])
    for indices in groups.values():
        chunk_size = (
            batch_chunk
            if batch_chunk is not None
            else default_batch_chunk(batch[indices[0]].n)
        )
        for start in range(0, len(indices), chunk_size):
            chunk_indices = indices[start : start + chunk_size]
            tasks.append(("batch", [batch[i] for i in chunk_indices]))
            task_indices.append(chunk_indices)

    effective_workers = pool.workers if pool is not None else workers
    if effective_workers == 1 or len(tasks) <= 1:
        task_reports = [_run_task(task) for task in tasks]
    else:
        with (
            nullcontext(pool)
            if pool is not None
            else WorkerPool(min(workers, len(tasks)))
        ) as active:
            results = _dispatch_supervised(
                active,
                tasks,
                ExecutionPolicy() if policy is None else policy,
                chaos_scope,
            )
        task_reports = [
            _resolve_task_result(result, task)
            for result, task in zip(results, tasks)
        ]

    reports: list[RunReport | None] = [None] * len(batch)
    for indices, chunk_reports in zip(task_indices, task_reports):
        for index, report in zip(indices, chunk_reports):
            reports[index] = report
    return reports  # type: ignore[return-value]


def aggregate(reports: Iterable[RunReport]) -> TrialStats:
    """Fold reports into the classic :class:`~repro.sim.run.TrialStats`.

    A trial counts as converged only when it :attr:`~RunReport.solved` —
    settled unanimously on a *good* nest — matching the (fixed) semantics
    of :func:`repro.sim.run.run_trials`.
    """
    materialized = list(reports)
    rounds = [r.converged_round for r in materialized if r.solved]
    chosen = Counter(
        r.chosen_nest for r in materialized if r.chosen_nest is not None
    )
    return TrialStats(
        n_trials=len(materialized),
        n_converged=len(rounds),
        rounds=np.asarray(rounds, dtype=np.int64),
        censored_at=max((r.max_rounds for r in materialized), default=0),
        chosen_nests=dict(chosen),
    )


def run_stats(
    scenario: Scenario,
    n_trials: int,
    workers: int = 1,
    backend: str = "auto",
    batch_chunk: int | None = None,
) -> TrialStats:
    """Run ``n_trials`` independent trials of a scenario and aggregate.

    The drop-in Scenario-API replacement for
    :func:`repro.sim.run.run_trials`: trial ``t`` uses
    ``RandomSource(scenario.seed).trial(t)``, exactly as before.  Trial
    batches are the canonical homogeneous workload, so this rides the
    trial-parallel fast engine whenever the algorithm has a batch kernel.
    """
    if n_trials < 1:
        raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
    return aggregate(
        run_batch(scenario.trials(n_trials), workers, backend, batch_chunk)
    )
