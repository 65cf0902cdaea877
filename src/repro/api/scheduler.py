"""The cell scheduler: one supervised executor under every study frontend.

:func:`repro.api.run_study` used to own an inline cell loop; ROADMAP item
1 (the long-running study service) needs that loop as an explicit object
a daemon can drive cell-by-cell.  :class:`CellScheduler` is that object:
it expands a :class:`~repro.api.sweep.Study`, owns the worker pool and
cache for its lifetime, and yields one
:class:`~repro.api.sweep.CellResult` per cell through :meth:`outcomes`
(streaming — a service layer can persist/publish each cell as it lands)
or a full :class:`~repro.api.sweep.StudyResult` through :meth:`run` (the
CLI path).  ``run_study`` is now a thin wrapper; the future daemon is a
second frontend over the same executor.

Execution behavior is pluggable through
:class:`~repro.api.runner.ExecutionPolicy` (defined next to the
dispatcher it configures and re-exported here):

- **supervision** — cache-missing cells dispatch through the supervised
  worker pool, the one parallel path of :func:`~repro.api.run_batch`
  (per-chunk deadlines, pool respawn, deterministic chunk retry with
  exponential backoff; see :func:`repro.api.runner._dispatch_supervised`);
- **cell retry** — a cell whose dispatch still fails after chunk-level
  recovery is retried up to ``quarantine_after`` times (only for
  *retryable* substrate faults — a deterministic kernel crash would just
  replay);
- **degradation** — a fast-backend cell that keeps failing falls back to
  the agent engine when the algorithm has one, recording
  ``extras["degraded"]`` on its reports (the resilience twin of the
  existing ``agent_fallback``);
- **quarantine** — a cell that exhausts every recovery path becomes a
  structured failure row in the :class:`~repro.api.results.ResultTable`
  (``status="quarantined"``) and the study *completes*; set
  ``quarantine=False`` for fail-fast
  :class:`~repro.exceptions.CellQuarantined`.

Retries re-draw the exact same ``RandomSource(seed).trial(t)`` streams,
so every recovered result is bit-identical to an undisturbed run — the
chaos suite (:mod:`tests.test_chaos`) pins this against the golden
harness.  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Iterator

from repro.api.cache import ResultCache, resolve_cache
from repro.api.registry import REGISTRY
from repro.api.results import ResultTable
from repro.api.runner import (
    ExecutionPolicy,
    WorkerPool,
    aggregate,
    default_workers,
    resolve_backend,
    run_batch,
)
from repro.api.sweep import (
    CellFailure,
    CellResult,
    Study,
    StudyResult,
    _table_row,
    evaluate_metrics,
    expand_study,
)
from repro.exceptions import (
    CellQuarantined,
    ConfigurationError,
    is_retryable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.sweep import Cell


class CellScheduler:
    """Expand a study and execute its cells under an execution policy.

    The scheduler owns the run's resources: the resolved cache, and — when
    no external ``pool`` is passed and ``workers > 1`` — a private
    :class:`~repro.api.runner.WorkerPool` shared by every cell and closed
    on :meth:`close` / context-manager exit.  Frontends either iterate
    :meth:`outcomes` (cell-at-a-time streaming) or call :meth:`run`.
    """

    def __init__(
        self,
        study: Study,
        *,
        backend: str | None = None,
        workers: int | None = None,
        cache: "ResultCache | str | None" = "auto",
        batch_chunk: int | None = None,
        pool: WorkerPool | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> None:
        self.study = study
        self.backend = backend
        self.workers = default_workers() if workers is None else workers
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        self.cache = resolve_cache(cache)
        self.batch_chunk = batch_chunk
        self.policy = ExecutionPolicy() if policy is None else policy
        self._external_pool = pool
        self._own_pool: WorkerPool | None = None

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release the scheduler-owned pool (external pools are untouched)."""
        if self._own_pool is not None:
            self._own_pool.close()
            self._own_pool = None

    def __enter__(self) -> "CellScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _pool(self) -> WorkerPool | None:
        if self._external_pool is not None:
            return self._external_pool
        if self.workers > 1 and self._own_pool is None:
            self._own_pool = WorkerPool(self.workers)
        return self._own_pool

    # -- execution ----------------------------------------------------------

    def cells(self) -> "list[Cell]":
        """The study's expanded cells with backends resolved eagerly.

        Resolution errors (unknown backend, unsupported features) are
        configuration bugs, not runtime faults: they surface here —
        identically with and without a cache — and are never quarantined.
        """
        expanded = []
        for cell in expand_study(self.study):
            if self.backend is not None:
                cell = replace(cell, backend=self.backend)
            resolved = resolve_backend(cell.scenario, cell.backend)
            expanded.append(replace(cell, backend=resolved))
        return expanded

    def outcomes(self) -> Iterator[CellResult]:
        """Execute cell by cell, yielding each result as it completes.

        The streaming surface for the study-service frontend: a daemon
        can persist or publish each cell the moment it lands instead of
        waiting for the whole study.
        """
        for cell in self.cells():
            yield self._run_cell(cell)

    def run(self) -> StudyResult:
        """Execute every cell and fold the outcomes into a StudyResult."""
        return fold_study_result(
            self.study, list(self.outcomes()), cached=self.cache is not None
        )

    def _run_cell(self, cell: "Cell") -> CellResult:
        """One cell through the full recovery ladder.

        Attempt the cell up to ``policy.quarantine_after`` times (each
        attempt itself rides the chunk-level supervision inside
        :func:`~repro.api.run_batch`); only *retryable* substrate faults
        earn another attempt.  Then degrade fast -> agent if allowed, and
        finally quarantine (or raise, under fail-fast policies).
        """
        policy = self.policy
        failure: BaseException | None = None
        attempts = 0
        for attempt in range(policy.quarantine_after):
            attempts = attempt + 1
            try:
                return self._execute(cell)
            except (KeyboardInterrupt, SystemExit):
                raise
            except ConfigurationError:
                raise
            except Exception as exc:
                failure = exc
                if not is_retryable(exc):
                    break
                if attempt + 1 < policy.quarantine_after:
                    delay = policy.backoff_delay(attempt + 1)
                    if delay > 0:
                        policy.sleep(delay)
        assert failure is not None
        if (
            policy.degrade_to_agent
            and cell.backend == "fast"
            and REGISTRY.get(cell.scenario.algorithm).has_agent
        ):
            degraded_cell = replace(cell, backend="agent")
            try:
                return self._execute(
                    degraded_cell, degraded=(type(failure).__name__,)
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                failure = exc
        if not policy.quarantine:
            raise CellQuarantined(
                f"cell {cell.index} failed after {attempts} attempt(s): "
                f"{type(failure).__name__}: {failure}",
                cell_index=cell.index,
                cause=failure,
            ) from failure
        return CellResult(
            cell,
            None,
            {},
            cached=False,
            failure=CellFailure(
                kind=type(failure).__name__,
                message=str(failure),
                attempts=attempts,
                retryable=is_retryable(failure),
            ),
        )

    def _execute(
        self, cell: "Cell", degraded: tuple[str, ...] = ()
    ) -> CellResult:
        """One attempt: cache lookup, else simulate, evaluate, store.

        The cache check lives *inside* the attempt so a retried cell
        whose first attempt died after ``store`` (or whose twin completed
        in another process) is served warm instead of re-simulated.
        """
        payload = cell.payload(self.study.metrics)
        if self.cache is not None:
            entry = self.cache.load(payload)
            if entry is not None:
                stats, metric_values = entry
                return CellResult(
                    cell, stats, metric_values, cached=True, degraded=degraded
                )
        try:
            scenarios = cell.scenario.trials(cell.trials, start=cell.trial_start)
            reports = run_batch(
                scenarios,
                workers=self.workers,
                backend=cell.backend,
                batch_chunk=self.batch_chunk,
                pool=self._pool(),
                policy=self.policy,
                chaos_scope=f"cell{cell.index}",
            )
            if degraded:
                from dataclasses import replace as _replace

                reports = [
                    _replace(r, extras={**r.extras, "degraded": list(degraded)})
                    for r in reports
                ]
            stats = aggregate(reports)
            metric_values = evaluate_metrics(self.study.metrics, reports, stats)
            if self.cache is not None:
                self.cache.store(payload, stats, metric_values)
        except BaseException:
            # A deduplicating cache (repro.service) hands out an in-flight
            # claim on the miss above; a failed compute must release it or
            # concurrent requesters of the same cell would wait forever.
            release = getattr(self.cache, "release", None)
            if release is not None:
                release(payload)
            raise
        return CellResult(
            cell,
            stats,
            metric_values,
            cached=False,
            degraded=degraded,
            simulated=len(reports),
        )


def fold_study_result(
    study: Study, results: "list[CellResult]", cached: bool
) -> StudyResult:
    """Fold per-cell outcomes into a :class:`StudyResult`.

    The one fold shared by every frontend — :meth:`CellScheduler.run`,
    the streaming ``sweep --json`` CLI, and the study service — so a
    study's table is bit-identical however its cells were delivered.
    ``cached`` says whether a cache served the run (hit/miss counters are
    only meaningful then).
    """
    hits = misses = simulated = 0
    for result in results:
        simulated += result.simulated
        if cached and result.failure is None:
            if result.cached:
                hits += 1
            else:
                misses += 1
    return StudyResult(
        study=study,
        cells=tuple(results),
        table=ResultTable.from_rows([_result_row(result) for result in results]),
        cache_hits=hits,
        cache_misses=misses,
        simulated_trials=simulated,
    )


def cell_event(result: CellResult) -> dict:
    """One completed cell as a JSON-safe event record.

    The NDJSON line format shared by ``python -m repro.api sweep --json``
    and the service's ``GET /jobs/<id>/cells`` stream: the cell's table
    row plus execution provenance (cached / degraded / quarantined,
    trials actually simulated).
    """
    event: dict = {
        "cell": result.cell.index,
        "row": _result_row(result),
        # The metrics dict separately from the merged row: a remote client
        # rebuilds CellResults from events and re-folds, and the fold needs
        # metrics (in insertion order) distinct from the cell's bindings.
        "metrics": dict(result.metrics),
        "cached": result.cached,
        "simulated": result.simulated,
    }
    if result.degraded:
        event["degraded"] = list(result.degraded)
    if result.failure is not None:
        event["status"] = "quarantined"
        event["error"] = f"{result.failure.kind}: {result.failure.message}"
    return event


def _result_row(result: CellResult) -> dict:
    """One ResultTable row: clean rows keep the classic schema exactly.

    Quarantined cells contribute ``status`` / ``error`` columns instead of
    metrics; degraded cells keep their metrics and add ``status``.  In an
    all-clean study neither column exists, so pre-resilience tables are
    bit-identical.
    """
    if result.failure is not None:
        row = _table_row(result.cell, {})
        row["status"] = "quarantined"
        row["error"] = f"{result.failure.kind}: {result.failure.message}"
        return row
    row = _table_row(result.cell, result.metrics)
    if result.degraded:
        row["status"] = "degraded"
    return row
