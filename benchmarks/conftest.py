"""Shared benchmark fixtures.

``bench_experiments.py`` runs every record of
:data:`repro.experiments.EXPERIMENTS` once under pytest-benchmark (so
regenerating a table *is* the benchmark), writes the table to
``benchmarks/output/<id>.txt`` — the artifacts EXPERIMENTS.md records —
and asserts the record's check, where it has one.

Set ``REPRO_BENCH_PROFILE=quick`` to run the reduced grids (CI smoke);
the default profile regenerates the full EXPERIMENTS.md numbers.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.tables import Table

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def quick_mode() -> bool:
    """Whether benches run the reduced grids."""
    return os.environ.get("REPRO_BENCH_PROFILE", "full") == "quick"


@pytest.fixture(scope="session")
def emit():
    """Writer that persists a table and echoes it to stdout."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _emit(experiment_id: str, table: Table) -> None:
        path = OUTPUT_DIR / f"{experiment_id}.txt"
        path.write_text(table.render() + "\n", encoding="utf-8")
        print()
        print(table.render())

    return _emit


def run_once(benchmark, runner, **kwargs) -> Table:
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(runner, kwargs=kwargs, rounds=1, iterations=1)
