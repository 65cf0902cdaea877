"""Result containers shared by the fast simulators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.types import NestId


@dataclass(frozen=True)
class FastRunResult:
    """Outcome of one fast-simulator run.

    Mirrors the essentials of :class:`repro.sim.engine.SimulationResult` so
    experiment code can treat the two engines interchangeably.
    """

    converged: bool
    converged_round: int | None
    rounds_executed: int
    chosen_nest: NestId | None
    final_counts: np.ndarray
    #: Optional per-round population matrix ``(T, k+1)`` — column 0 is the
    #: home nest.  Populated only when ``record_history=True``.
    population_history: np.ndarray | None = field(default=None, repr=False)

    @property
    def rounds_to_convergence(self) -> int:
        """Convergence round, or ``rounds_executed`` when censored."""
        return (
            self.converged_round
            if self.converged_round is not None
            else self.rounds_executed
        )


@dataclass(frozen=True)
class SpreadResult:
    """Outcome of one run of the lower-bound spread process (Theorem 3.2)."""

    all_informed: bool
    rounds_to_all_informed: int | None
    rounds_executed: int
    #: Number of informed ants at the end of each round (index 0 = round 1).
    informed_history: np.ndarray = field(repr=False, default=None)

    @property
    def completion_round(self) -> int:
        """Completion round, or ``rounds_executed`` when censored."""
        return (
            self.rounds_to_all_informed
            if self.rounds_to_all_informed is not None
            else self.rounds_executed
        )
