"""The engine-neutral result schema.

Both engines answer the same questions — did the colony converge, when,
where, and what did the populations look like — but historically with two
containers (:class:`~repro.sim.engine.SimulationResult` and
:class:`~repro.fast.results.FastRunResult`).  :class:`RunReport` is the
normalization: one frozen record with an identical field set regardless of
backend, so experiment code can sweep engines without branching and batch
results can be serialized uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.scenario import Scenario
    from repro.fast.results import FastRunResult
    from repro.sim.engine import SimulationResult


@dataclass(frozen=True)
class RunReport:
    """Outcome of one scenario run, identical in shape across backends.

    ``extras`` holds engine-specific detail (the agent engine's solution
    status, the spread process's informed-ant curve, ...) without breaking
    the common schema — its *key set* may differ between backends, the
    top-level fields never do.
    """

    algorithm: str
    backend: str  # "agent" | "fast"
    n: int
    k: int
    seed: int
    trial_index: int | None
    max_rounds: int
    converged: bool
    converged_round: int | None
    rounds_executed: int
    chosen_nest: int | None
    chose_good_nest: bool
    final_counts: np.ndarray | None = field(repr=False, default=None)
    population_history: np.ndarray | None = field(repr=False, default=None)
    extras: dict[str, Any] = field(repr=False, default_factory=dict)

    @property
    def solved(self) -> bool:
        """The paper's success notion: converged *and* on a good nest."""
        return self.converged and self.chose_good_nest

    @property
    def rounds_to_convergence(self) -> int:
        """Convergence round, or ``rounds_executed`` when censored."""
        return (
            self.converged_round
            if self.converged_round is not None
            else self.rounds_executed
        )

    def to_dict(self, include_history: bool = False) -> dict[str, Any]:
        """A JSON-safe plain-dict form (arrays become lists)."""
        data = {
            "algorithm": self.algorithm,
            "backend": self.backend,
            "n": self.n,
            "k": self.k,
            "seed": self.seed,
            "trial_index": self.trial_index,
            "max_rounds": self.max_rounds,
            "converged": self.converged,
            "converged_round": self.converged_round,
            "rounds_executed": self.rounds_executed,
            "chosen_nest": self.chosen_nest,
            "chose_good_nest": self.chose_good_nest,
            "solved": self.solved,
            "final_counts": (
                None if self.final_counts is None else self.final_counts.tolist()
            ),
            "extras": dict(self.extras),
        }
        if include_history:
            data["population_history"] = (
                None
                if self.population_history is None
                else self.population_history.tolist()
            )
        return data

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_simulation(
        cls,
        scenario: "Scenario",
        result: "SimulationResult",
        extras: dict[str, Any] | None = None,
    ) -> "RunReport":
        """Normalize an agent-engine :class:`SimulationResult`.

        ``extras`` merges runner-level detail (e.g. the ``agent_fallback``
        feature list recorded under ``backend="auto"``) into the standard
        agent extras.
        """
        history = None
        if result.history:
            history = np.vstack([record.snapshot.counts for record in result.history])
        merged = {"status": result.status.value}
        if extras:
            merged.update(extras)
        return cls(
            algorithm=scenario.algorithm,
            backend="agent",
            n=scenario.n,
            k=scenario.nests.k,
            seed=scenario.seed,
            trial_index=scenario.trial_index,
            max_rounds=scenario.max_rounds,
            converged=result.converged,
            converged_round=result.converged_round,
            rounds_executed=result.rounds_executed,
            chosen_nest=result.chosen_nest,
            chose_good_nest=_is_good(scenario, result.chosen_nest),
            final_counts=result.final_counts,
            population_history=history,
            extras=merged,
        )

    @classmethod
    def from_fast(
        cls,
        scenario: "Scenario",
        result: "FastRunResult",
        extras: dict[str, Any] | None = None,
    ) -> "RunReport":
        """Normalize a fast-engine :class:`FastRunResult`.

        ``extras`` lets the registry adapters record engine detail (e.g.
        which matcher schedule ran) without widening the schema.
        """
        return cls(
            algorithm=scenario.algorithm,
            backend="fast",
            n=scenario.n,
            k=scenario.nests.k,
            seed=scenario.seed,
            trial_index=scenario.trial_index,
            max_rounds=scenario.max_rounds,
            converged=result.converged,
            converged_round=result.converged_round,
            rounds_executed=result.rounds_executed,
            chosen_nest=result.chosen_nest,
            chose_good_nest=_is_good(scenario, result.chosen_nest),
            final_counts=result.final_counts,
            population_history=result.population_history,
            extras=dict(extras) if extras else {},
        )


def _is_good(scenario: "Scenario", chosen_nest: int | None) -> bool:
    return chosen_nest is not None and scenario.nests.is_good(chosen_nest)
