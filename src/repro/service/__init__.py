"""The study service: a long-running sweep daemon over the Scenario API.

``python -m repro.service`` starts a persistent daemon that owns one
shared :class:`~repro.api.runner.WorkerPool` and serves Study JSON over
HTTP: submissions enter a priority job queue, executor threads drive each
job through the same :class:`~repro.api.scheduler.CellScheduler` the CLI
uses, and concurrent studies deduplicate work at *cell* granularity —
through the content-addressed :class:`~repro.api.cache.ResultCache`
(ideally over the sharded :class:`~repro.api.store.SQLiteStore`) for
completed cells, and through an in-flight claim registry
(:class:`~repro.service.dedupe.DedupingCache`) for cells currently being
computed, so the same cell hash is simulated exactly once however many
requesters want it.

Everything stays bit-deterministic: a study run through the daemon yields
a :class:`~repro.api.results.ResultTable` equal to the same study through
:func:`repro.api.run_study`.

See ``docs/SERVICE.md`` for the HTTP API and job lifecycle.
"""

from repro.service.client import ServiceClient, default_service_url
from repro.service.daemon import StudyService
from repro.service.dedupe import DedupingCache
from repro.service.jobs import JOB_STATES, TERMINAL_STATES, Job, JobQueue

__all__ = [
    "DedupingCache",
    "JOB_STATES",
    "Job",
    "JobQueue",
    "ServiceClient",
    "StudyService",
    "TERMINAL_STATES",
    "default_service_url",
]
