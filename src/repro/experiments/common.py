"""The experiment record, its registry, and the helpers runners share.

Each ``eNN_*`` module declares one :class:`Experiment` per reproduced
claim and passes it to :func:`register`, which files it in
:data:`EXPERIMENTS` and its study factory in :data:`repro.api.STUDIES`.
A record's workload is a declarative :class:`repro.api.Study` executed
through :func:`repro.api.run_study`; its renderer only *formats* the
resulting :class:`~repro.api.StudyResult` into the historical ASCII table.
``REPRO_WORKERS`` (parsed by the shared :func:`repro.api.default_workers`)
fans cells' trial batches over worker processes, and ``REPRO_CACHE_DIR``
enables the content-addressed result cache — results are bit-identical for
any worker count or cache state, so the tables never depend on the machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro import knobs
from repro.analysis.tables import Table
from repro.api import STUDIES, Study, StudyResult, default_cache, default_workers, run_study
from repro.sim.rng import RandomSource

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "censored_median",
    "default_workers",
    "every_row_holds",
    "execute_study",
    "register",
    "success_is_one",
    "trial_seeds",
]


@dataclass(frozen=True)
class Experiment:
    """One reproduced claim: its study, its table, and the table's check.

    ``claim`` is the EXPERIMENTS.md heading (and the study's ``STUDIES``
    description), ``summary`` the paragraph under it.  ``study(quick,
    base_seed, **overrides)`` works out every default; ``render`` reads
    what it prints (n, k, round caps) from the cells that ran.  ``check``,
    when set, is the reproduction's pass/fail predicate on the table.
    """

    id: str
    claim: str
    summary: str
    study: Callable[..., Study]
    render: Callable[[StudyResult], Table]
    check: Callable[[Table], bool] | None = None

    def run(self, quick: bool = False, base_seed: int = 0, **overrides: Any) -> Table:
        """The experiment's table; ``quick`` shrinks grids to seconds."""
        return self.render(execute_study(self.study(quick, base_seed, **overrides)))


#: Experiment id → record, in registration (import) order.
EXPERIMENTS: dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """File ``experiment`` in :data:`EXPERIMENTS` and its study in ``STUDIES``."""
    STUDIES.register(experiment.id, experiment.study, experiment.claim)
    EXPERIMENTS[experiment.id] = experiment
    return experiment


def every_row_holds(table: Table) -> bool:
    """Every row's last column, the claim's own test, reads ``yes``."""
    return all(row[-1] == "yes" for row in table._rows)


def success_is_one(table: Table) -> bool:
    """Every row's ``success`` column reads ``1`` (the w.h.p. claims)."""
    success_column = table.columns.index("success")
    return all(row[success_column] == "1" for row in table._rows)


def execute_study(study: Study) -> StudyResult:
    """Run one experiment study with the environment's workers and cache.

    When ``$REPRO_SERVICE_URL`` is set the study is submitted to that
    study-service daemon instead of running in-process — a fleet of
    experiment scripts then shares one warm worker pool and result cache.
    Either path yields a bit-identical result table.
    """
    from repro.service.client import ServiceClient

    if knobs.service_url():
        return ServiceClient().run_study(study)
    return run_study(study, workers=default_workers(), cache=default_cache())


def trial_seeds(base_seed: int, count: int) -> list[RandomSource]:
    """Independent per-trial random sources under one base seed."""
    root = RandomSource(base_seed)
    return [root.trial(index) for index in range(count)]


def censored_median(rounds: Sequence[float], fallback: float) -> float:
    """Median of converged rounds, or ``fallback`` when nothing converged."""
    values = [value for value in rounds if value is not None]
    return float(np.median(values)) if values else float(fallback)
