"""Executable reproductions of every quantitative claim in the paper.

Each ``eNN_*`` module declares one :class:`~repro.experiments.common.Experiment`
record per claim (``e04_optimal_scaling`` declares E4 and E4b): the claim
and summary EXPERIMENTS.md prints, the study factory registered in
:data:`repro.api.STUDIES`, the table renderer and, where the claim admits
one, the table's pass/fail check.  :data:`EXPERIMENTS` maps each id to its
record; :data:`RUNNERS` is its runner view::

    RUNNERS[eid](quick: bool = False, base_seed: int = 0, **overrides) -> Table

``quick`` shrinks grids/trial counts to seconds (used by the test suite);
the defaults regenerate the EXPERIMENTS.md numbers, and overrides go to
the record's study factory.  ``benchmarks/bench_experiments.py`` times
every record and writes its table; the CLI runs any subset::

    python -m repro.experiments E1 E7 --quick

Adding an experiment means one module that registers its record, plus its
import line below.
"""

from typing import Callable

from repro.analysis.tables import Table
from repro.experiments import (  # noqa: F401  (each module registers its records)
    e01_lower_bound,
    e02_recruitment,
    e03_optimal_dropout,
    e04_optimal_scaling,
    e05_simple_gap,
    e06_simple_dropout,
    e07_simple_scaling,
    e08_comparison,
    e09_adaptive,
    e10_nonbinary,
    e11_noise,
    e12_faults,
    e13_asynchrony,
    e14_polya,
)
from repro.experiments.common import EXPERIMENTS, Experiment

#: Experiment id → runner, in :data:`EXPERIMENTS` order.
RUNNERS: dict[str, Callable[..., Table]] = {
    eid: experiment.run for eid, experiment in EXPERIMENTS.items()
}

__all__ = ["EXPERIMENTS", "Experiment", "RUNNERS"]
