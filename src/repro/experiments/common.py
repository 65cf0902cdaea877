"""Shared helpers for the experiment runners.

Since the Sweep/Study redesign every runner is a declarative
:class:`repro.api.Study` (registered in :data:`repro.api.STUDIES`) executed
through :func:`repro.api.run_study`; the modules here only *format* the
resulting :class:`~repro.api.results.ResultTable` into the historical
ASCII tables.  ``REPRO_WORKERS`` (parsed by the shared
:func:`repro.api.default_workers`) fans cells' trial batches over worker
processes, and ``REPRO_CACHE_DIR`` enables the content-addressed result
cache — results are bit-identical for any worker count or cache state, so
the tables never depend on the machine.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import knobs
from repro.api import Study, StudyResult, default_cache, default_workers, run_study
from repro.sim.rng import RandomSource

__all__ = [
    "censored_median",
    "default_workers",
    "execute_study",
    "trial_seeds",
]


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
