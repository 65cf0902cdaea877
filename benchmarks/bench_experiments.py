"""E1–E14 and E4b — regenerate every experiment table EXPERIMENTS.md records."""

import pytest
from conftest import run_once

from repro.experiments import EXPERIMENTS


@pytest.mark.parametrize("experiment", EXPERIMENTS.values(), ids=EXPERIMENTS.keys())
def test_experiment_table(benchmark, quick_mode, emit, experiment):
    table = run_once(benchmark, experiment.run, quick=quick_mode)
    emit(experiment.id, table)
    assert experiment.check is None or experiment.check(table)
