"""The study service core: shared pool, shared cache, executor threads.

:class:`StudyService` is the daemon's engine, independent of HTTP (the
tests drive it directly; :mod:`repro.service.http` is a thin frontend).
It owns the process-wide resources every job shares:

- one persistent :class:`~repro.api.runner.WorkerPool` — worker processes
  fork once per daemon, not once per study;
- one :class:`~repro.service.dedupe.DedupingCache` over the configured
  :class:`~repro.api.cache.ResultCache` — completed cells dedupe through
  the content-addressed store, in-flight cells through the claim registry;
- a :class:`~repro.service.jobs.JobQueue` drained by ``executors``
  threads, each driving one job at a time through its own
  :class:`~repro.api.scheduler.CellScheduler` (so two running jobs
  interleave cell *dispatch*, while trial execution multiplexes over the
  one pool).

Determinism: the scheduler path is exactly the one under
:func:`repro.api.run_study`, so a daemon-run study folds to a bit-equal
:class:`~repro.api.results.ResultTable`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Mapping

from repro.api.cache import ResultCache
from repro.api.runner import WorkerPool, default_workers
from repro.api.scheduler import (
    CellScheduler,
    ExecutionPolicy,
    cell_event,
    fold_study_result,
)
from repro.api.sweep import Study, expand_study
from repro.fast.arena import arena_stats
from repro.service.dedupe import DedupingCache
from repro.service.jobs import Job, JobQueue

#: Concurrent studies in flight per daemon.  Two is enough to overlap a
#: long study with short ones and to exercise cross-study dedupe; the
#: worker pool, not the executor count, bounds simulation throughput.
DEFAULT_EXECUTORS = 2


class StudyService:
    """A long-running executor for submitted studies.

    ``cache`` may be a :class:`ResultCache`, an already-wrapped
    :class:`DedupingCache`, or ``None`` (no caching — jobs still run, but
    nothing dedupes; mostly for tests).  A plain :class:`ResultCache` is
    wrapped in a :class:`DedupingCache` automatically.
    """

    def __init__(
        self,
        *,
        cache: "ResultCache | DedupingCache | None",
        workers: int | None = None,
        executors: int = DEFAULT_EXECUTORS,
        backend: str | None = None,
        policy: ExecutionPolicy | None = None,
        batch_chunk: int | None = None,
    ) -> None:
        if executors < 1:
            raise ValueError(f"executors must be >= 1, got {executors}")
        if isinstance(cache, ResultCache):
            cache = DedupingCache(cache)
        self.cache = cache
        self.workers = default_workers() if workers is None else workers
        self.backend = backend
        self.policy = policy
        self.batch_chunk = batch_chunk
        self.pool = WorkerPool(self.workers) if self.workers > 1 else None
        self.queue = JobQueue()
        self.started_at = time.monotonic()
        # Registered studies declare metric functions in the experiment
        # modules; without them a submitted study naming one would be
        # rejected as using an unknown metric.
        import repro.experiments  # noqa: F401

        self._threads = [
            threading.Thread(
                target=self._executor_loop,
                name=f"study-executor-{index}",
                daemon=True,
            )
            for index in range(executors)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission -----------------------------------------------------------

    def submit(
        self, study: "Study | Mapping[str, Any]", priority: int = 0
    ) -> Job:
        """Validate and enqueue a study; returns its :class:`Job`.

        Expansion happens here so malformed studies fail the *submission*
        (the HTTP layer turns the raised
        :class:`~repro.exceptions.ConfigurationError` into a 400) instead
        of a dead job later.
        """
        if not isinstance(study, Study):
            study = Study.from_dict(study)
        cells_total = len(expand_study(study))
        return self.queue.submit(study, priority=priority, cells_total=cells_total)

    # -- execution ------------------------------------------------------------

    def _executor_loop(self) -> None:
        while True:
            job = self.queue.pop()
            if job is None:  # queue closed
                return
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        job.mark_running()
        try:
            scheduler = CellScheduler(
                job.study,
                backend=self.backend,
                workers=self.workers,
                cache=self.cache,
                batch_chunk=self.batch_chunk,
                pool=self.pool,
                policy=self.policy,
            )
            results = []
            with scheduler:
                for result in scheduler.outcomes():
                    results.append(result)
                    job.add_event(cell_event(result))
            study_result = fold_study_result(
                job.study, results, cached=self.cache is not None
            )
            state = "quarantined" if study_result.quarantined else "done"
            job.finish(state, result=study_result)
        except BaseException as error:  # noqa: BLE001 - executor must survive
            job.finish("failed", error=f"{type(error).__name__}: {error}")
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The ``GET /stats`` payload: service, queue, cache, and memory."""
        by_state: dict[str, int] = {}
        for job in self.queue.jobs():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "workers": self.workers,
            "executors": len(self._threads),
            "queue_depth": self.queue.depth(),
            "jobs": by_state,
            "cache": None if self.cache is None else self.cache.stats(),
            # Kernel-arena memory across this process's executor threads:
            # retained now vs. the high-water mark (a huge-n cell's
            # footprint must be visible, not silently permanent).
            "arena": arena_stats(),
        }

    # -- lifecycle -------------------------------------------------------------

    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting jobs, let running ones finish, release the pool."""
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout)
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def __enter__(self) -> "StudyService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
