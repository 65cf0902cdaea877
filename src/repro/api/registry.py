"""The algorithm registry: one name, up to two engines.

Each :class:`AlgorithmEntry` binds a registry name to

- an **agent builder**: ``(scenario) -> (AntFactory, default CriterionFactory
  or None)`` — how to assemble a colony for the reference engine, and
- at most one **fast entry point**, when a vectorized implementation
  exists: a **batch kernel** ``(scenarios) -> [RunReport, ...]`` that runs
  a homogeneous chunk trial-parallel (a single run is a batch of one), or,
  for the standalone processes with no batch form, a per-trial **fast
  kernel** ``(scenario, source) -> RunReport``.

Which scenarios a fast kernel can honor is declared **feature-granularly**:
:func:`scenario_features` maps a scenario to the set of feature tags it
requests (fault-plan layers, noise kinds, delay models, non-default
criteria, recorded histories) and each entry lists the tags its kernel
implements in ``fast_features``.  ``backend="auto"`` prefers the fast
kernel whenever the requested set is covered (plus the entry's optional
structural ``fast_supports`` predicate) and falls back to the agent engine
otherwise; :meth:`AlgorithmEntry.missing_fast_features` names exactly which
features forced a fallback — the runner records them on the report and the
explicit-``backend="fast"`` error message lists them.

New protocol variants register in one line — see
:mod:`repro.api.algorithms` for the built-in population.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.exceptions import ConfigurationError
from repro.extensions.estimation import EncounterNoise
from repro.fast.backends import BACKEND_NAMES
from repro.sim.convergence import (
    CommittedToSingleGoodNest,
    ConvergenceCriterion,
    UnanimousCommitment,
)
from repro.sim.noise import CountNoise
from repro.sim.rng import RandomSource
from repro.sim.run import AntFactory, CriterionFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.report import RunReport
    from repro.api.scenario import Scenario

#: Criterion name -> factory, the runtime side of
#: :data:`repro.api.scenario.CRITERION_NAMES`.
CRITERIA: dict[str, CriterionFactory] = {
    "good": CommittedToSingleGoodNest,
    "good_settled": lambda: CommittedToSingleGoodNest(require_settled=True),
    "good_healthy": lambda: CommittedToSingleGoodNest(exclude_faulty=True),
    "unanimous": UnanimousCommitment,
}


def criterion_factory(name: str) -> CriterionFactory:
    """The factory for a registered criterion name."""
    try:
        return CRITERIA[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown criterion {name!r}; known: {', '.join(sorted(CRITERIA))}"
        ) from None


# -- scenario feature tags ---------------------------------------------------
#
# The vocabulary ``backend="auto"`` dispatch speaks: a scenario *requests* a
# set of tags and a fast kernel *implements* a set of tags.  Tags are
# deliberately fine-grained (crash faults separate from Byzantine rows,
# Gaussian count noise separate from quality flips) so a kernel can grow
# support one perturbation at a time and fallback reasons stay precise.

FEATURE_FAULT_CRASH = "fault_plan.crash"
FEATURE_FAULT_BYZANTINE = "fault_plan.byzantine"
FEATURE_DELAY = "delay_model"
FEATURE_NOISE_COUNT = "noise.count"
FEATURE_NOISE_QUALITY_FLIP = "noise.quality_flip"
FEATURE_NOISE_ENCOUNTER = "noise.encounter"
#: An unrecognized duck-typed noise model (anything that is neither a
#: CountNoise nor an EncounterNoise).  No kernel declares this tag: only
#: the agent engine's NoisyAnt wrapper can honor arbitrary models.
FEATURE_NOISE_CUSTOM = "noise.custom"
FEATURE_RECORD_HISTORY = "record_history"


def criterion_feature(name: str) -> str:
    """The feature tag of a non-default convergence criterion."""
    return f"criterion.{name}"


#: Every feature tag a scenario can request (criterion tags are derived).
FEATURE_TAGS = (
    FEATURE_FAULT_CRASH,
    FEATURE_FAULT_BYZANTINE,
    FEATURE_DELAY,
    FEATURE_NOISE_COUNT,
    FEATURE_NOISE_QUALITY_FLIP,
    FEATURE_NOISE_ENCOUNTER,
    FEATURE_NOISE_CUSTOM,
    FEATURE_RECORD_HISTORY,
) + tuple(criterion_feature(name) for name in CRITERIA)


def scenario_features(scenario: "Scenario") -> frozenset[str]:
    """The feature tags a scenario requests beyond a plain run.

    No-op layers request nothing: a ``FaultPlan`` whose fractions round to
    zero faulty ants *at this scenario's* ``n``, a null ``CountNoise`` and
    a zero-probability ``DelayModel`` leave the run unperturbed, so they
    never force an engine.
    """
    features: set[str] = set()
    plan = scenario.fault_plan
    if plan is not None:
        if plan.n_crashed(scenario.n) > 0:
            features.add(FEATURE_FAULT_CRASH)
        if plan.n_byzantine(scenario.n) > 0:
            features.add(FEATURE_FAULT_BYZANTINE)
    delay = scenario.delay_model
    if delay is not None and not delay.is_null:
        features.add(FEATURE_DELAY)
    noise = scenario.noise
    if isinstance(noise, EncounterNoise):
        features.add(FEATURE_NOISE_ENCOUNTER)
        if noise.quality_flip_prob > 0.0:
            features.add(FEATURE_NOISE_QUALITY_FLIP)
    elif isinstance(noise, CountNoise):
        if noise.relative_sigma > 0.0 or noise.absolute_sigma > 0.0:
            features.add(FEATURE_NOISE_COUNT)
        if noise.quality_flip_prob > 0.0:
            features.add(FEATURE_NOISE_QUALITY_FLIP)
    elif noise is not None:
        # An unrecognized noise model can only be honored by the agent
        # engine's duck-typed wrapper; no fast kernel declares this tag.
        features.add(FEATURE_NOISE_CUSTOM)
    if scenario.criterion is not None:
        features.add(criterion_feature(scenario.criterion))
    if scenario.record_history:
        features.add(FEATURE_RECORD_HISTORY)
    return frozenset(features)


#: Builds the agent-engine ingredients for a scenario.
AgentBuilder = Callable[
    ["Scenario"], tuple[AntFactory, "CriterionFactory | None"]
]
#: Runs one scenario's vectorized implementation (the fast entry point of
#: processes that have no batch kernel).
FastKernel = Callable[["Scenario", RandomSource], "RunReport"]
#: Structural constraints beyond the feature tags (e.g. the spread process
#: hard-coding the good nest as nest 1).  Feature coverage is declared via
#: ``fast_features``.
FastSupport = Callable[["Scenario"], bool]
#: Runs one homogeneous chunk of scenarios trial-parallel (the batched fast
#: engine); must return one report per scenario, in order, bit-identical
#: for every chunking — a scenario alone is a batch of one.
BatchKernel = Callable[[Sequence["Scenario"]], "list[RunReport]"]


def scenario_kernel_backend(scenario: "Scenario") -> str | None:
    """The kernel-backend pin a scenario requests (validated), or ``None``.

    Every backend realizes the batch kernels bit-for-bit, so an
    environment-selected backend (``$REPRO_FAST_BACKEND`` or
    :func:`repro.fast.backends.use_backend`) is digest-transparent and
    never recorded.  An explicit ``params={"kernel_backend": ...}`` pin
    *is* part of the scenario identity — the runner records it in report
    extras.  Pins only name a realization of the batch kernels; the agent
    engine has no backend seam, so its builders reject a pin rather than
    silently ignoring it.
    """
    pin = scenario.params.get("kernel_backend")
    if pin is None:
        return None
    if pin not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown kernel backend {pin!r}; known: {', '.join(BACKEND_NAMES)}"
        )
    return pin


@dataclass(frozen=True)
class AlgorithmEntry:
    """One registered algorithm: metadata plus per-engine adapters.

    ``fast_kernel`` and ``batch_kernel`` are alternative fast entry points:
    an entry registers at most one of them.
    """

    name: str
    summary: str
    agent_builder: AgentBuilder | None = None
    fast_kernel: FastKernel | None = None
    fast_supports: FastSupport | None = None
    batch_kernel: BatchKernel | None = None
    #: Feature tags the fast kernel implements (see :func:`scenario_features`).
    fast_features: frozenset[str] = field(default_factory=frozenset)
    #: The ``Scenario.params`` keys this entry's builders/kernels accept.
    #: Declarative contract, cross-checked statically against the
    #: implementations by reprolint's R301 (``tools/reprolint.py``).
    param_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.fast_kernel is not None and self.batch_kernel is not None:
            raise ConfigurationError(
                f"algorithm {self.name!r} registers both a fast_kernel and a "
                "batch_kernel; register one fast entry point"
            )
        if self.agent_builder is None and not self.has_fast:
            raise ConfigurationError(
                f"algorithm {self.name!r} registers neither engine"
            )
        object.__setattr__(self, "fast_features", frozenset(self.fast_features))
        object.__setattr__(self, "param_names", tuple(self.param_names))
        unknown = self.fast_features - set(FEATURE_TAGS)
        if unknown:
            raise ConfigurationError(
                f"algorithm {self.name!r} declares unknown fast feature(s) "
                f"{sorted(unknown)}; known: {', '.join(FEATURE_TAGS)}"
            )

    @property
    def has_agent(self) -> bool:
        """Whether an agent-engine implementation is registered."""
        return self.agent_builder is not None

    @property
    def has_fast(self) -> bool:
        """Whether a vectorized kernel (batch or per-trial) is registered."""
        return self.fast_kernel is not None or self.batch_kernel is not None

    @property
    def backends(self) -> tuple[str, ...]:
        """The backends this entry can serve, fast first."""
        names: list[str] = []
        if self.has_fast:
            names.append("fast")
        if self.has_agent:
            names.append("agent")
        return tuple(names)

    def supports_fast(self, scenario: "Scenario") -> bool:
        """Whether the fast kernel exists *and* covers this scenario."""
        return self.has_fast and not self.missing_fast_features(scenario)

    #: Pseudo-tag reported when the structural predicate (not a declared
    #: feature) rules the fast kernel out — e.g. a spread scenario whose
    #: good nest is not nest 1.
    STRUCTURAL_LIMIT = "scenario-structure"

    def missing_fast_features(self, scenario: "Scenario") -> tuple[str, ...]:
        """Why the fast kernel cannot honor this scenario (empty = it can).

        Returns the sorted requested-but-unimplemented feature tags; when
        the tags are all covered but the structural ``fast_supports``
        predicate still says no, returns ``(STRUCTURAL_LIMIT,)``.  This is
        the single source of truth behind :meth:`supports_fast`, the
        ``backend="fast"`` error message, and the ``agent_fallback`` extra
        :func:`repro.api.run` records under ``backend="auto"``.
        """
        if not self.has_fast:
            return ("no-fast-kernel",)
        missing = tuple(sorted(scenario_features(scenario) - self.fast_features))
        if missing:
            return missing
        if self.fast_supports is not None and not self.fast_supports(scenario):
            return (self.STRUCTURAL_LIMIT,)
        return ()

    @property
    def has_batch(self) -> bool:
        """Whether a trial-parallel batch kernel is registered."""
        return self.batch_kernel is not None

    def supports_batch(self, scenario: "Scenario") -> bool:
        """Whether the batch kernel exists and covers this scenario."""
        return self.has_batch and self.supports_fast(scenario)


class AlgorithmRegistry:
    """Name -> :class:`AlgorithmEntry` mapping with registration helpers."""

    def __init__(self) -> None:
        self._entries: dict[str, AlgorithmEntry] = {}

    def register(
        self,
        name: str,
        summary: str,
        agent_builder: AgentBuilder | None = None,
        fast_kernel: FastKernel | None = None,
        fast_supports: FastSupport | None = None,
        batch_kernel: BatchKernel | None = None,
        fast_features: frozenset[str] | Sequence[str] = (),
        params: Sequence[str] = (),
        replace: bool = False,
    ) -> AlgorithmEntry:
        """Register an algorithm; returns the stored entry.

        ``params`` declares the ``Scenario.params`` keys the entry's
        builders and kernels accept (stored as
        :attr:`AlgorithmEntry.param_names`); reprolint cross-checks the
        declaration against the implementations.
        """
        if name in self._entries and not replace:
            raise ConfigurationError(f"algorithm {name!r} already registered")
        entry = AlgorithmEntry(
            name=name,
            summary=summary,
            agent_builder=agent_builder,
            fast_kernel=fast_kernel,
            fast_supports=fast_supports,
            batch_kernel=batch_kernel,
            fast_features=frozenset(fast_features),
            param_names=tuple(params),
        )
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> AlgorithmEntry:
        """Look up an entry; raise with the known names on a miss."""
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown algorithm {name!r}; known: {', '.join(self.names())}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """All registered names, in registration order."""
        return tuple(self._entries)

    def describe(self) -> list[tuple[str, str, str]]:
        """(name, backends, summary) rows for listings and the CLI."""
        return [
            (entry.name, "+".join(entry.backends), entry.summary)
            for entry in self._entries.values()
        ]

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[AlgorithmEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide default registry, populated by :mod:`repro.api.algorithms`.
REGISTRY = AlgorithmRegistry()
