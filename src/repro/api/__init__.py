"""The unified Scenario API: one declarative entrypoint over both engines.

The package grew two front doors — the readable agent-based engine
(:mod:`repro.sim`) and the vectorized fast engine (:mod:`repro.fast`) —
each with its own call conventions and result types.  This subsystem puts
one declarative surface over both:

- :class:`Scenario` — a frozen, JSON-serializable description of a run
  (algorithm name, workload, seed, perturbations, stopping rule);
- :data:`REGISTRY` — the :class:`AlgorithmRegistry` where every algorithm,
  baseline and extension registers its agent factory and (when available)
  vectorized kernel;
- :func:`run` — execute one scenario on ``backend="auto" | "agent" |
  "fast"`` and get a backend-neutral :class:`RunReport`;
- :func:`run_batch` / :func:`run_stats` / :func:`aggregate` — deterministic
  multi-process sweeps folding into :class:`~repro.sim.run.TrialStats`.

Quickstart::

    from repro.api import Scenario, run
    from repro.model.nests import NestConfig

    scenario = Scenario(
        algorithm="simple", n=128, nests=NestConfig.binary(4, {1, 3}), seed=7
    )
    report = run(scenario)            # picks the fast kernel automatically
    print(report.converged_round, report.chosen_nest)

``python -m repro.api --list`` shows every registered algorithm.
"""

from repro.api.algorithms import register_builtin_algorithms
from repro.api.cache import CACHE_FORMAT_VERSION, ResultCache, default_cache
from repro.api.store import (
    STORE_KINDS,
    DirectoryStore,
    SQLiteStore,
    StoreDefect,
    make_store,
)
from repro.api.registry import (
    CRITERIA,
    FEATURE_TAGS,
    REGISTRY,
    AlgorithmEntry,
    AlgorithmRegistry,
    criterion_factory,
    criterion_feature,
    scenario_features,
)
from repro.api.report import RunReport
from repro.api.results import ResultTable
from repro.api.runner import (
    BACKENDS,
    ExecutionPolicy,
    WorkerPool,
    aggregate,
    default_batch_chunk,
    default_workers,
    resolve_backend,
    run,
    run_batch,
    run_stats,
)
from repro.api.scenario import CRITERION_NAMES, Scenario
from repro.api.scheduler import CellScheduler
from repro.api.sweep import (
    METRICS,
    STUDIES,
    CellFailure,
    CellResult,
    Study,
    StudyResult,
    Sweep,
    cases,
    expr,
    grid,
    nests_spec,
    ref,
    register_metric,
    run_study,
    zipped,
)

register_builtin_algorithms()

#: Unambiguous alias for re-export from the top-level :mod:`repro` package,
#: where a bare ``run`` would read poorly next to ``run_trial``/``run_trials``.
run_scenario = run

__all__ = [
    "AlgorithmEntry",
    "AlgorithmRegistry",
    "BACKENDS",
    "CACHE_FORMAT_VERSION",
    "CRITERIA",
    "CRITERION_NAMES",
    "CellFailure",
    "CellResult",
    "CellScheduler",
    "DirectoryStore",
    "ExecutionPolicy",
    "FEATURE_TAGS",
    "METRICS",
    "REGISTRY",
    "ResultCache",
    "ResultTable",
    "RunReport",
    "SQLiteStore",
    "STORE_KINDS",
    "STUDIES",
    "StoreDefect",
    "Scenario",
    "Study",
    "StudyResult",
    "Sweep",
    "WorkerPool",
    "aggregate",
    "cases",
    "default_batch_chunk",
    "criterion_factory",
    "criterion_feature",
    "default_cache",
    "default_workers",
    "expr",
    "grid",
    "make_store",
    "nests_spec",
    "ref",
    "register_builtin_algorithms",
    "register_metric",
    "resolve_backend",
    "run",
    "run_batch",
    "run_scenario",
    "run_stats",
    "run_study",
    "scenario_features",
    "zipped",
]
