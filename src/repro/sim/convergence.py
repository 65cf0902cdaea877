"""Convergence criteria for simulation runs.

A criterion is a small stateful object the engine consults after every
round.  The canonical one, :class:`CommittedToSingleGoodNest`, encodes the
paper's solution predicate (see :mod:`repro.model.problem`); composites like
:class:`StableForRounds` demand the predicate hold for a window, which is
the right notion for perturbed runs (noise/faults) where a colony can
transiently agree and then wobble.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from repro.model.ant import Ant
from repro.model.problem import HouseHuntingProblem, SolutionStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.engine import RoundRecord


def is_faulty(ant: Ant) -> bool:
    """Whether ``ant`` is (or wraps) a fault-injected ant.

    Detected structurally (a crashed :class:`~repro.sim.faults.CrashedAnt`
    reports ``crashed``; a Byzantine ant labels itself) to avoid an import
    cycle with the faults module.  Perturbation layers compose — a crashed
    ant may be wrapped in noise and delay layers — so the check walks the
    whole ``inner`` chain.
    """
    current: Ant | None = ant
    seen = 0
    while current is not None and seen < 16:  # wrapper chains are short
        if getattr(current, "crashed", False):
            return True
        if current.state_label() == "byzantine":
            return True
        current = getattr(current, "inner", None)
        seen += 1
    return False


class ConvergenceCriterion(ABC):
    """Decides, once per round, whether the run has converged."""

    def __init__(self) -> None:
        self.problem: HouseHuntingProblem | None = None

    def bind(self, problem: HouseHuntingProblem) -> None:
        """Receive the problem instance (called by the engine at setup)."""
        self.problem = problem

    @abstractmethod
    def update(self, ants: Sequence[Ant], record: "RoundRecord") -> bool:
        """Consume this round's state; return ``True`` when converged."""

    def reset(self) -> None:
        """Clear any internal state (default: stateless)."""


class CommittedToSingleGoodNest(ConvergenceCriterion):
    """The paper's predicate: unanimous commitment to one good nest.

    Parameters
    ----------
    require_settled:
        Additionally require every ant's ``settled`` flag (Algorithm 2's
        ``final`` state).  Leave ``False`` for algorithms without a terminal
        state (Algorithm 3 and most baselines).
    exclude_faulty:
        Evaluate the predicate over the *healthy* ants only.  Crashed and
        Byzantine ants can never change their commitment, so over the whole
        colony the predicate fails for good once a crashed ant is stranded
        off the winning nest (early crashes at a few percent often do this;
        crashes after the colony has settled do not).  That is why
        fault-injection experiments (E12) judge the healthy colony: the
        meaningful consensus claim is about correct processes, exactly as
        in classical fault-tolerant consensus.
    """

    def __init__(
        self, require_settled: bool = False, exclude_faulty: bool = False
    ) -> None:
        super().__init__()
        self.require_settled = require_settled
        self.exclude_faulty = exclude_faulty

    def update(self, ants: Sequence[Ant], record: "RoundRecord") -> bool:
        if self.exclude_faulty:
            considered = [ant for ant in ants if not is_faulty(ant)]
            if not considered:
                return False
            if self.problem is None:
                raise RuntimeError("criterion not bound to a problem")
            if self.problem.status(considered) is not SolutionStatus.SOLVED:
                return False
            if self.require_settled and not all(a.settled for a in considered):
                return False
            return True
        if record.status is not SolutionStatus.SOLVED:
            return False
        if self.require_settled and not all(ant.settled for ant in ants):
            return False
        return True


class UnanimousCommitment(ConvergenceCriterion):
    """Unanimous commitment to *any* single nest, good or bad.

    Used by the non-binary-quality experiments, where which nest wins is the
    measurement and a below-threshold winner must still end the run.
    """

    def update(self, ants: Sequence[Ant], record: "RoundRecord") -> bool:
        return record.status in (
            SolutionStatus.SOLVED,
            SolutionStatus.AGREED_ON_BAD_NEST,
        )


class StableForRounds(ConvergenceCriterion):
    """Wrap another criterion; require it to hold ``window`` rounds in a row.

    The reported convergence round is the round at which the window
    *completes* — callers wanting the window's start can subtract
    ``window - 1``.
    """

    def __init__(self, inner: ConvergenceCriterion, window: int) -> None:
        super().__init__()
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.inner = inner
        self.window = window
        self._streak = 0

    def bind(self, problem) -> None:
        super().bind(problem)
        self.inner.bind(problem)

    def update(self, ants: Sequence[Ant], record: "RoundRecord") -> bool:
        if self.inner.update(ants, record):
            self._streak += 1
        else:
            self._streak = 0
        return self._streak >= self.window

    def reset(self) -> None:
        self._streak = 0
        self.inner.reset()


class AllAntsAtOneNest(ConvergenceCriterion):
    """Physical unanimity: every ant located at the same candidate nest.

    Stricter than commitment (it can only hold on rounds when nobody is at
    the home nest) — useful for the lower-bound spread process and for
    sanity checks, not for the recruit-cycling algorithms.
    """

    def __init__(self, require_good: bool = True) -> None:
        super().__init__()
        self.require_good = require_good

    def update(self, ants: Sequence[Ant], record: "RoundRecord") -> bool:
        counts = record.snapshot.counts
        n = counts.sum()
        occupied = (counts[1:] > 0).nonzero()[0]
        if counts[0] != 0 or len(occupied) != 1:
            return False
        nest = int(occupied[0]) + 1
        if counts[nest] != n:
            return False
        return True


class NeverConverges(ConvergenceCriterion):
    """Always ``False``; run exactly ``max_rounds`` (for dynamics studies)."""

    def update(self, ants: Sequence[Ant], record: "RoundRecord") -> bool:
        return False
