"""One-call fast-engine runs for tests that exercise a kernel directly.

Both helpers go through the registry (:func:`repro.api.run` /
:func:`repro.api.run_batch` with ``backend="fast"``), so a test drives
exactly the batch kernel a study would.  A scenario with ``seed=s`` and no
trial index draws from ``RandomSource(s)``.
"""

from __future__ import annotations

from typing import Iterable

from repro.api import RunReport, Scenario, run, run_batch
from repro.model.nests import NestConfig


def fast_run(
    algorithm: str,
    n: int,
    nests: NestConfig,
    seed: int = 0,
    max_rounds: int = 100_000,
    **fields,
) -> RunReport:
    """One fast-engine run (a batch of one); ``fields`` are Scenario fields."""
    scenario = Scenario(
        algorithm=algorithm, n=n, nests=nests, seed=seed, max_rounds=max_rounds,
        **fields,
    )
    return run(scenario, backend="fast")


def fast_runs(
    algorithm: str,
    n: int,
    nests: NestConfig,
    seeds: Iterable[int],
    max_rounds: int = 100_000,
    **fields,
) -> list[RunReport]:
    """One fast-engine run per seed, dispatched as one homogeneous batch.

    Bit-identical to calling :func:`fast_run` once per seed.
    """
    base = Scenario(
        algorithm=algorithm, n=n, nests=nests, max_rounds=max_rounds, **fields
    )
    return run_batch([base.replace(seed=seed) for seed in seeds], backend="fast")
