"""Scenario execution: one entrypoint over both engines, serial or parallel.

:func:`run` turns a :class:`~repro.api.scenario.Scenario` into a
:class:`~repro.api.report.RunReport` on either engine; :func:`run_batch`
additionally detects *homogeneous* runs of scenarios (same workload,
differing only in seed/trial index), simulates them trial-parallel through
the registered batch kernels (:mod:`repro.fast.batch`) in chunks, and fans
chunks and leftovers out over worker processes.  Because every scenario's
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

import itertools
import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.api.registry import REGISTRY, AlgorithmRegistry, criterion_factory
from repro.api.report import RunReport
from repro.api.scenario import Scenario
from repro.exceptions import (
    ChunkTimeout,
    ConfigurationError,
    ExecutionError,
    WorkerCrash,
    is_retryable,
)
from repro.fast.arena import maybe_trim
from repro.fast.tiling import resolve_tile_width
from repro.sim.engine import RoundHook
from repro.sim.run import TrialStats, run_trial

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.scheduler import ExecutionPolicy

BACKENDS = ("auto", "agent", "fast")

#: Environment variable choosing the default worker-process count.
WORKERS_ENV = "REPRO_WORKERS"


def default_workers() -> int:
    """Worker processes from ``$REPRO_WORKERS`` (default 1, floor 1).

    The one shared parser for every entry point (experiment runners, the
    ``repro.api`` CLI, :func:`repro.api.run_study`): unparseable or
    non-positive values fall back to serial execution rather than erroring
    — a bad environment variable should never break a reproduction run.
    """
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


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

    On the fast engine, an algorithm with a batch kernel runs the scenario
    as a batch of one — bit-identical to the same trial inside any
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
        entry = registry.get(scenario.algorithm)
        if entry.has_batch:
            return entry.batch_kernel([scenario])[0]
        return entry.fast_kernel(scenario, scenario.source())

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
        SIGKILLed and *joined* — the join guarantees no worker can create
        a shared-memory segment after the parent starts unlinking the
        failed chunks' segments.  The pool object stays usable: the next
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
#: scenario through :func:`run`; ``("batch", [scenarios])`` runs one
#: homogeneous chunk through the algorithm's batch kernel.
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


#: Parent-assigned shared-memory segment names: ``repro<pid>s<seq>``.
#: Deterministic per-process naming (no ``uuid``) lets the parent unlink
#: the in-flight segment of a worker that died mid-chunk — the fix for
#: the "killed worker leaks /dev/shm" hole.
_SEGMENT_SEQ = itertools.count()


def _segment_name() -> str:
    return f"repro{os.getpid()}s{next(_SEGMENT_SEQ)}"


def _run_task_packed(
    task: _Task,
    shm: bool = False,
    shm_name: str | None = None,
    chaos_scope: str | None = None,
    chaos_task: int = 0,
    attempt: int = 0,
) -> object:
    """Worker-side target: batch chunks return packed numpy columns.

    Packing drops the per-report Python object graph from the result pipe
    (the parent rebuilds reports from the scenarios it already holds);
    with ``shm`` the columns of large chunks move through a
    ``multiprocessing.shared_memory`` segment — named ``shm_name`` by the
    parent, so a killed worker's in-flight segment is still unlinkable.
    Singles still return their reports directly — they can carry
    agent-engine payloads the packer doesn't speak.

    This is also the chaos-injection point (:mod:`repro.api.chaos`): it
    only ever runs in worker processes, so an injected SIGKILL exercises
    the supervision path without touching the parent.
    """
    from repro.api import chaos
    from repro.api.transport import maybe_to_shm, pack_reports

    chaos.maybe_inject(chaos_scope, chaos_task, attempt, task[0], "start")
    reports = _run_task(task)
    # Long-lived pool workers honour the $REPRO_ARENA_TRIM_BYTES retention
    # cap between tasks, so one huge-n chunk cannot pin its working set
    # for the rest of the pool's life (no-op when the cap is unset).
    maybe_trim()
    if task[0] != "batch":
        return reports
    packed = pack_reports(reports)
    if shm:
        packed = maybe_to_shm(packed, name=shm_name)
    chaos.maybe_inject(chaos_scope, chaos_task, attempt, task[0], "result")
    return packed


def _resolve_task_result(result: object, task: _Task) -> list[RunReport]:
    """Parent-side inverse of :func:`_run_task_packed`."""
    from repro.api.transport import from_shm, is_shm_descriptor, unpack_reports

    if isinstance(result, list):
        return result
    if is_shm_descriptor(result):
        try:
            result = from_shm(result)
        except FileNotFoundError as exc:
            raise WorkerCrash(
                f"shared-memory segment {result['shm']!r} vanished before "
                "the parent could read it"
            ) from exc
    return unpack_reports(result, task[1])


def _reap_if_broken(executor) -> None:
    """SIGKILL and join a broken executor's workers before shm cleanup.

    When a pool breaks, its futures fail *before* the executor finishes
    terminating sibling workers — one of them may still be inside
    ``maybe_to_shm``, about to create a segment the parent is unlinking.
    Reaping first closes that race.
    """
    if not getattr(executor, "_broken", False):
        return
    processes = list((getattr(executor, "_processes", None) or {}).values())
    for proc in processes:
        try:
            proc.kill()
        except Exception:  # pragma: no cover - already-reaped worker
            pass
    for proc in processes:
        try:
            proc.join(5.0)
        except Exception:  # pragma: no cover - concurrent reap
            pass


def _collect_results(
    executor, tasks: list[_Task], shm: bool, chaos_scope: str | None = None
) -> list[object]:
    """Gather worker results, releasing orphaned shm segments on failure.

    A failing task must leak no shared-memory segment — neither from
    chunks that already completed (their ownership transferred to this
    process the moment the workers returned descriptors) nor from the
    in-flight chunk of a crashed worker (its parent-assigned name is
    unlinked without ever having seen a descriptor).
    """
    from concurrent.futures import wait
    from repro.api.transport import discard_shm, is_shm_descriptor, unlink_segment

    names = [_segment_name() if shm else None for _ in tasks]
    futures = [
        executor.submit(
            _run_task_packed,
            task,
            shm=shm,
            shm_name=names[i],
            chaos_scope=chaos_scope,
            chaos_task=i,
        )
        for i, task in enumerate(tasks)
    ]
    try:
        return [future.result() for future in futures]
    except BaseException:
        for future in futures:
            future.cancel()
        wait(futures)
        _reap_if_broken(executor)
        for i, future in enumerate(futures):
            if future.cancelled() or future.exception() is not None:
                if names[i] is not None:
                    unlink_segment(names[i])
                continue
            result = future.result()
            if is_shm_descriptor(result):
                discard_shm(result)
        raise


def _dispatch_supervised(
    pool: WorkerPool,
    tasks: list[_Task],
    shm: bool,
    policy: "ExecutionPolicy",
    chaos_scope: str | None = None,
) -> list[object]:
    """Run tasks under supervision: deadlines, pool respawn, chunk retry.

    Each round submits every still-pending chunk, then harvests results
    with a per-chunk deadline (``policy.chunk_timeout``).  A blown
    deadline or a dead worker (``BrokenProcessPool``) marks the round's
    unfinished chunks failed with a *retryable* error, SIGKILLs and
    respawns the pool, unlinks the failed chunks' parent-assigned shm
    segments, and — after a deterministic exponential backoff — retries
    them.  Because a chunk is a pure function of its scenarios'
    ``(seed, trial_index)`` streams, a retry reproduces the same bits, so
    recovery is invisible in the results.  A chunk that exhausts
    ``policy.max_retries`` re-raises its last failure; a *non-retryable*
    task exception (a deterministic kernel crash) is fatal immediately —
    retrying a pure function that raised is wasted work.
    """
    from concurrent.futures import BrokenExecutor
    from repro.api.transport import discard_shm, is_shm_descriptor, unlink_segment

    results: list[object] = [None] * len(tasks)
    done = [False] * len(tasks)
    attempts = [0] * len(tasks)
    pending = list(range(len(tasks)))

    def _discard_completed() -> None:
        for i, result in enumerate(results):
            if done[i] and is_shm_descriptor(result):
                discard_shm(result)

    while pending:
        executor = pool.executor()
        names = {i: (_segment_name() if shm else None) for i in pending}
        futures: dict[int, object] = {}
        try:
            for i in pending:
                futures[i] = executor.submit(
                    _run_task_packed,
                    tasks[i],
                    shm=shm,
                    shm_name=names[i],
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
                    done[i] = True
                else:
                    future.cancel()
                    failures[i] = WorkerCrash(
                        f"chunk {i} lost when the worker pool died "
                        f"(attempt {attempts[i]})"
                    )
                continue
            try:
                results[i] = future.result(timeout=policy.chunk_timeout)
                done[i] = True
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
            except ExecutionError as exc:
                if is_retryable(exc):
                    failures[i] = exc
                else:
                    pool.kill()
                    _discard_completed()
                    for name in names.values():
                        if name is not None:
                            unlink_segment(name)
                    raise
            except BaseException:
                pool.kill()
                _discard_completed()
                for name in names.values():
                    if name is not None:
                        unlink_segment(name)
                raise
        if pool_dead:
            # Kill *before* unlinking: a surviving worker mid-chunk must
            # not create its segment after the parent unlinks the name.
            pool.kill()
        for i in failures:
            if names[i] is not None:
                unlink_segment(names[i])
        pending = []
        for i, exc in failures.items():
            attempts[i] += 1
            if attempts[i] > policy.max_retries:
                _discard_completed()
                raise exc
            pending.append(i)
        if pending:
            delay = policy.backoff_delay(max(attempts[i] for i in pending))
            if delay > 0:
                policy.sleep(delay)
    return results


#: Result transports for worker processes.  ``pickle`` is always correct;
#: ``shm`` routes large packed chunks through shared memory.
TRANSPORTS = ("pickle", "shm")

#: Environment variable opting into the shared-memory transport by default.
SHM_TRANSPORT_ENV = "REPRO_SHM_TRANSPORT"


def _resolve_transport(transport: str | None) -> str:
    if transport is None:
        transport = (
            "shm" if os.environ.get(SHM_TRANSPORT_ENV) == "1" else "pickle"
        )
    if transport not in TRANSPORTS:
        raise ConfigurationError(
            f"unknown transport {transport!r}; known: {', '.join(TRANSPORTS)}"
        )
    return transport


def run_batch(
    scenarios: Iterable[Scenario],
    workers: int = 1,
    backend: str = "auto",
    batch_chunk: int | None = None,
    pool: "WorkerPool | None" = None,
    transport: str | None = None,
    policy: "ExecutionPolicy | None" = None,
    chaos_scope: str | None = None,
) -> list[RunReport]:
    """Run many scenarios; reports come back in input order.

    Homogeneous runs of scenarios — same algorithm and workload, differing
    only in ``seed``/``trial_index`` — are detected and dispatched to the
    algorithm's trial-parallel batch kernel in chunks (when the registry
    entry has one and the resolved backend is ``fast``); everything else
    runs scenario-by-scenario through :func:`run`.  ``workers > 1`` fans
    the chunks and the leftover singles out over a process pool; pass a
    :class:`WorkerPool` via ``pool=`` to reuse worker processes across
    calls (``pool`` takes precedence over ``workers``).  ``batch_chunk``
    defaults to the size-aware :func:`default_batch_chunk` policy per
    group.  ``transport`` selects how workers ship results back
    (:data:`TRANSPORTS`; ``None`` reads ``$REPRO_SHM_TRANSPORT``).

    A :class:`~repro.api.scheduler.ExecutionPolicy` via ``policy=`` turns
    on *supervised* parallel dispatch: per-chunk deadlines, automatic pool
    respawn after a worker death, and deterministic chunk retry with
    exponential backoff (see :func:`_dispatch_supervised`).
    ``chaos_scope`` labels this call for the deterministic fault-injection
    harness (:mod:`repro.api.chaos`); it has no effect unless a
    ``$REPRO_CHAOS`` plan targets it.

    Each trial derives its randomness from its own ``(seed, trial_index)``
    and the batch kernels consume those streams per trial, so the reports
    are **bit-identical for every** ``workers``, ``batch_chunk``, ``pool``,
    ``transport`` and ``policy`` value — supervised recovery included —
    and identical to running each scenario alone —
    :mod:`tests.test_batch_engine`, the golden-digest suite and
    :mod:`tests.test_chaos` pin this down.
    """
    batch = list(scenarios)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if batch_chunk is not None and batch_chunk < 1:
        raise ConfigurationError(f"batch_chunk must be >= 1, got {batch_chunk}")
    # Validate eagerly so configuration errors surface identically whether
    # or not the dispatch ends up parallel.
    shm = _resolve_transport(transport) == "shm"
    # Resolve backends up front so configuration errors surface immediately
    # (and identically) regardless of worker count.
    payloads = [(s, resolve_backend(s, backend)) for s in batch]

    # Partition into batchable groups (keyed by everything but randomness)
    # and leftover singles, remembering every scenario's input position.
    groups: dict[str, list[int]] = {}
    tasks: list[_Task] = []
    task_indices: list[list[int]] = []
    for index, (scenario, resolved) in enumerate(payloads):
        entry = REGISTRY.get(scenario.algorithm)
        if resolved == "fast" and entry.supports_batch(scenario):
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
    supervised = policy is not None and policy.supervise
    if effective_workers == 1 or len(tasks) <= 1:
        task_reports = [_run_task(task) for task in tasks]
    else:
        if supervised:
            if pool is not None:
                results = _dispatch_supervised(
                    pool, tasks, shm, policy, chaos_scope
                )
            else:
                with WorkerPool(
                    min(effective_workers, len(tasks))
                ) as transient:
                    results = _dispatch_supervised(
                        transient, tasks, shm, policy, chaos_scope
                    )
        elif pool is not None:
            results = _collect_results(
                pool.executor(), tasks, shm, chaos_scope
            )
        else:
            with ProcessPoolExecutor(
                max_workers=min(effective_workers, len(tasks))
            ) as executor:
                results = _collect_results(executor, tasks, shm, chaos_scope)
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
