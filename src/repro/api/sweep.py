"""Declarative parameter sweeps: the Sweep/Study layer over ``run_batch``.

PR 1 made single runs data (:class:`~repro.api.scenario.Scenario`); this
module makes whole *sweeps* data.  A :class:`Sweep` describes a family of
scenarios as a base template plus axes (``grid`` / ``zip`` / explicit
``cases``) over any scenario field — including nested ``params`` keys,
perturbation-layer fields, and :class:`~repro.model.nests.NestConfig`
factories — and a :class:`Study` names a sweep, fixes the trials-per-cell
and selects result metrics.  Both are frozen and JSON-round-trippable, so
an experiment is a file you can ship, diff, and re-run.

:func:`run_study` executes a study by flattening every cell into
:func:`repro.api.run_batch` (reusing the trial-parallel batch kernels and
multiprocessing untouched), folds each cell into
:class:`~repro.sim.run.TrialStats` plus the study's metric columns, and
streams rows into a columnar :class:`~repro.api.results.ResultTable`.
Each finished cell is written to a content-addressed
:class:`~repro.api.cache.ResultCache`, so re-running a study is
incremental and an interrupted sweep resumes from the completed cells.

Axis bindings that aren't scenario fields are *sweep variables*: they
appear as result columns and can be referenced from the base template via
value specs:

- ``{"$ref": "k"}`` — substitute the cell's ``k`` binding;
- ``{"$expr": {"const": 7, "terms": {"n": 1}, "cast": "int"}}`` — an
  affine combination of bindings (how per-cell seeds are derived);
- ``{"$nests": {"factory": "all_good", "k": {"$ref": "k"}}}`` — build a
  nest configuration from a registered factory.

Reserved bindings ``trials``, ``backend`` and ``trial_start`` override the
study defaults per cell (heterogeneous studies: agent-engine rows with
fewer trials next to fast-engine rows, historical trial-index layouts).

Quickstart::

    from repro.api import Study, Sweep, grid, nests_spec, ref, run_study

    study = Study(
        name="simple-scaling",
        sweep=Sweep(
            base={"algorithm": "simple", "nests": nests_spec("all_good", k=4),
                  "seed": 7, "max_rounds": 100_000},
            axes=(grid("n", (128, 256, 512, 1024)),),
        ),
        trials=20,
    )
    print(run_study(study).table.to_csv())
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.api.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    resolve_cache,
)
from repro.api.report import RunReport
from repro.api.results import ResultTable
from repro.api.runner import ExecutionPolicy, WorkerPool
from repro.api.scenario import Scenario
from repro.exceptions import ConfigurationError
from repro.model.nests import NestConfig
from repro.sim.run import TrialStats

#: Scenario fields a sweep axis or base template may bind (dotted paths —
#: ``params.beta``, ``noise.relative_sigma`` — address nested keys).
SCENARIO_FIELDS = (
    "algorithm",
    "n",
    "nests",
    "seed",
    "max_rounds",
    "params",
    "noise",
    "fault_plan",
    "delay_model",
    "criterion",
    "record_history",
)

#: Per-cell execution overrides (not scenario fields, not sweep variables).
RESERVED_FIELDS = ("trials", "backend", "trial_start")

#: NestConfig factory name -> builder, the ``$nests`` spec vocabulary.
NEST_FACTORIES: dict[str, Callable[..., NestConfig]] = {
    "all_good": lambda k: NestConfig.all_good(int(k)),
    "single_good": lambda k, good_nest=1: NestConfig.single_good(
        int(k), good_nest=int(good_nest)
    ),
    "binary": lambda k, good: NestConfig.binary(int(k), {int(i) for i in good}),
    "graded": lambda qualities, good_threshold=None: (
        NestConfig.graded(list(qualities))
        if good_threshold is None
        else NestConfig.graded(list(qualities), good_threshold=float(good_threshold))
    ),
}


# -- value specs -------------------------------------------------------------


def ref(name: str) -> dict[str, Any]:
    """A value spec substituting the cell binding ``name``."""
    return {"$ref": name}


def expr(const: float = 0, cast: str | None = None, **terms: float) -> dict[str, Any]:
    """An affine value spec: ``const + sum(coeff * binding)`` per cell.

    ``cast="int"`` truncates the total — the idiom for deriving per-cell
    seeds from swept values (``expr(base_seed, n=1)`` = ``base_seed + n``).
    """
    return {"$expr": {"const": const, "terms": dict(terms), "cast": cast}}


def nests_spec(factory: str, **kwargs: Any) -> dict[str, Any]:
    """A nest-configuration spec built by a registered factory per cell."""
    if factory not in NEST_FACTORIES:
        raise ConfigurationError(
            f"unknown nest factory {factory!r}; known: {', '.join(NEST_FACTORIES)}"
        )
    return {"$nests": {"factory": factory, **kwargs}}


def _is_spec(value: Any) -> bool:
    return isinstance(value, Mapping) and any(
        key in value for key in ("$ref", "$expr", "$nests")
    )


def _resolve(value: Any, bindings: Mapping[str, Any]) -> Any:
    """Recursively resolve ``$ref`` / ``$expr`` / ``$nests`` specs."""
    if isinstance(value, Mapping):
        if "$ref" in value:
            name = value["$ref"]
            if name not in bindings:
                raise ConfigurationError(
                    f"$ref to unknown sweep variable {name!r}; "
                    f"bound: {', '.join(sorted(map(str, bindings)))}"
                )
            return bindings[name]
        if "$expr" in value:
            spec = value["$expr"]
            total = spec.get("const", 0)
            for name, coeff in spec.get("terms", {}).items():
                if name not in bindings:
                    raise ConfigurationError(
                        f"$expr term references unknown sweep variable {name!r}"
                    )
                total = total + coeff * bindings[name]
            if spec.get("cast") == "int":
                total = int(total)
            return total
        if "$nests" in value:
            spec = {
                key: _resolve(item, bindings)
                for key, item in value["$nests"].items()
            }
            factory = spec.pop("factory", None)
            if factory not in NEST_FACTORIES:
                raise ConfigurationError(
                    f"unknown nest factory {factory!r}; "
                    f"known: {', '.join(NEST_FACTORIES)}"
                )
            nests = NEST_FACTORIES[factory](**spec)
            return {
                "qualities": [float(q) for q in nests.qualities],
                "good_threshold": float(nests.good_threshold),
            }
        return {key: _resolve(item, bindings) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_resolve(item, bindings) for item in value]
    return value


# -- axes --------------------------------------------------------------------


def grid(field_name: str, values: Sequence[Any]) -> dict[str, Any]:
    """A grid axis: one binding per value (cartesian with the other axes)."""
    return {"kind": "grid", "field": field_name, "values": list(values)}


def zipped(fields: Sequence[str], rows: Sequence[Sequence[Any]]) -> dict[str, Any]:
    """A zip axis: each row binds all ``fields`` simultaneously."""
    return {
        "kind": "zip",
        "fields": list(fields),
        "values": [list(row) for row in rows],
    }


def cases(*case_bindings: Mapping[str, Any]) -> dict[str, Any]:
    """An explicit-cases axis: each case is a full binding dict."""
    return {"kind": "cases", "cases": [dict(case) for case in case_bindings]}


def _axis_bindings(axis: Mapping[str, Any]) -> list[dict[str, Any]]:
    kind = axis.get("kind")
    if kind == "grid":
        return [{axis["field"]: value} for value in axis["values"]]
    if kind == "zip":
        fields = list(axis["fields"])
        rows = []
        for row in axis["values"]:
            if len(row) != len(fields):
                raise ConfigurationError(
                    f"zip axis row {row!r} does not match fields {fields!r}"
                )
            rows.append(dict(zip(fields, row)))
        return rows
    if kind == "cases":
        return [dict(case) for case in axis["cases"]]
    raise ConfigurationError(
        f"unknown axis kind {kind!r}; known: grid, zip, cases"
    )


# -- the declarations --------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """A family of scenarios: base template x product of axes.

    ``base`` maps scenario fields (dotted paths allowed) to values or value
    specs.  Each axis contributes a list of binding dicts; the sweep's
    cells are the cartesian product across axes (binding-key collisions
    between axes are errors).  ``exclude`` drops any cell whose bindings
    match every key of one of its entries.
    """

    base: Mapping[str, Any] = field(default_factory=dict)
    axes: tuple[Mapping[str, Any], ...] = ()
    exclude: tuple[Mapping[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", dict(self.base))
        axes = (self.axes,) if isinstance(self.axes, Mapping) else self.axes
        for axis in axes:
            if not isinstance(axis, Mapping) or "kind" not in axis:
                raise ConfigurationError(
                    f"each sweep axis must be an axis dict (grid/zipped/"
                    f"cases), got {axis!r}"
                )
        object.__setattr__(self, "axes", tuple(dict(a) for a in axes))
        object.__setattr__(self, "exclude", tuple(dict(e) for e in self.exclude))

    def cells(self) -> list[dict[str, Any]]:
        """Every cell's bindings, in axis-major (first axis slowest) order."""
        per_axis = [_axis_bindings(axis) for axis in self.axes]
        out: list[dict[str, Any]] = []
        for combo in itertools.product(*per_axis) if per_axis else [()]:
            bindings: dict[str, Any] = {}
            for part in combo:
                collision = set(part) & set(bindings)
                if collision:
                    raise ConfigurationError(
                        f"axes bind the same variable(s): {sorted(collision)}"
                    )
                bindings.update(part)
            if any(
                all(key in bindings and bindings[key] == value for key, value in ex.items())
                for ex in self.exclude
            ):
                continue
            out.append(bindings)
        if not out:
            raise ConfigurationError("sweep has no cells (empty axes or all excluded)")
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "base": dict(self.base),
            "axes": [dict(axis) for axis in self.axes],
            "exclude": [dict(ex) for ex in self.exclude],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Sweep":
        return cls(
            base=dict(data.get("base") or {}),
            axes=tuple(data.get("axes") or ()),
            exclude=tuple(data.get("exclude") or ()),
        )


#: Default metric columns when a study doesn't choose.
DEFAULT_METRICS = ("n_trials", "n_converged", "success_rate", "median_rounds")


@dataclass(frozen=True)
class Study:
    """A named sweep with trials-per-cell and metric selection."""

    name: str
    sweep: Sweep
    trials: int
    metrics: tuple[str, ...] = DEFAULT_METRICS
    backend: str = "auto"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a study needs a name")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "metrics", tuple(self.metrics))
        unknown = [m for m in self.metrics if m not in METRICS]
        if unknown:
            raise ConfigurationError(
                f"unknown metric(s) {unknown}; known: {', '.join(sorted(METRICS))}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "sweep": self.sweep.to_dict(),
            "trials": self.trials,
            "metrics": list(self.metrics),
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Study":
        # An explicit empty metrics list means "no metric columns" and must
        # round-trip as such; only a *missing* key falls back to defaults.
        metrics = data.get("metrics")
        return cls(
            name=data["name"],
            sweep=Sweep.from_dict(data["sweep"]),
            trials=int(data["trials"]),
            metrics=DEFAULT_METRICS if metrics is None else tuple(metrics),
            backend=data.get("backend", "auto"),
            description=data.get("description", ""),
        )

    def to_json(self, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "Study":
        return cls.from_dict(json.loads(text))


# -- metrics -----------------------------------------------------------------

#: A metric folds one cell's reports+stats into a scalar or a dict of
#: named scalar columns.  Metrics must be pure: cached cells re-serve the
#: recorded values without re-running the function.
MetricFn = Callable[[Sequence[RunReport], TrialStats], Any]

METRICS: dict[str, MetricFn] = {}


def register_metric(name: str, fn: MetricFn, replace: bool = False) -> None:
    """Register a named metric for use in :attr:`Study.metrics`."""
    if name in METRICS and not replace:
        raise ConfigurationError(f"metric {name!r} already registered")
    METRICS[name] = fn


def _metric_scalar(value: Any) -> Any:
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    raise ConfigurationError(
        f"metric values must be JSON scalars, got {type(value).__name__}"
    )


def evaluate_metrics(
    names: Sequence[str], reports: Sequence[RunReport], stats: TrialStats
) -> dict[str, Any]:
    """Evaluate ``names`` on one cell; dict-valued metrics flatten to columns."""
    values: dict[str, Any] = {}
    for name in names:
        try:
            fn = METRICS[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown metric {name!r}; known: {', '.join(sorted(METRICS))}"
            ) from None
        out = fn(reports, stats)
        flat = out if isinstance(out, Mapping) else {name: out}
        for key, value in flat.items():
            if key in values:
                raise ConfigurationError(
                    f"metric column {key!r} produced twice in one cell"
                )
            values[key] = _metric_scalar(value)
    return values


def _median(values: list[float]) -> float:
    return float(np.median(values)) if values else float("nan")


def _register_builtin_metrics() -> None:
    # Solved-based metrics (converged AND on a good nest) — the TrialStats
    # / run_stats success contract.
    register_metric("n_trials", lambda reports, stats: stats.n_trials)
    register_metric("n_converged", lambda reports, stats: stats.n_converged)
    register_metric("success_rate", lambda reports, stats: stats.success_rate)
    register_metric("median_rounds", lambda reports, stats: stats.median_rounds)
    register_metric("mean_rounds", lambda reports, stats: stats.mean_rounds)
    register_metric("p95_rounds", lambda reports, stats: stats.percentile(95))
    # Converged-based metrics (criterion fired, good or not) — the
    # summarize-runs contract used by the scaling experiments.
    register_metric(
        "n_converged_reports",
        lambda reports, stats: sum(1 for r in reports if r.converged),
    )
    register_metric(
        "success_rate_converged",
        lambda reports, stats: (
            sum(1 for r in reports if r.converged) / len(reports)
        ),
    )
    register_metric(
        "median_rounds_converged",
        lambda reports, stats: _median(
            [r.converged_round for r in reports if r.converged]
        ),
    )
    # All-report metrics (censored trials count at their executed rounds).
    register_metric(
        "median_rounds_all",
        lambda reports, stats: _median([r.rounds_to_convergence for r in reports]),
    )
    register_metric(
        "min_rounds_all",
        lambda reports, stats: min(r.rounds_to_convergence for r in reports),
    )
    register_metric(
        "max_rounds_all",
        lambda reports, stats: max(r.rounds_to_convergence for r in reports),
    )


_register_builtin_metrics()


# -- execution ---------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One fully-resolved sweep cell, ready to execute (or look up)."""

    index: int
    bindings: Mapping[str, Any]
    scenario: Scenario
    trials: int
    trial_start: int
    backend: str

    def payload(self, metrics: Sequence[str]) -> dict[str, Any]:
        """The content-address payload identifying this cell's result."""
        return {
            "version": CACHE_FORMAT_VERSION,
            "scenario": self.scenario.to_dict(),
            "trials": self.trials,
            "trial_start": self.trial_start,
            "backend": self.backend,
            "metrics": sorted(set(metrics)),
        }


@dataclass(frozen=True)
class CellFailure:
    """Structured record of a quarantined cell's terminal failure."""

    #: Exception class name (``"WorkerCrash"``, ``"ChunkTimeout"``, ...).
    kind: str
    message: str
    #: Cell-level attempts made before giving up.
    attempts: int
    #: Whether the terminal failure was a retryable substrate fault.
    retryable: bool


@dataclass(frozen=True)
class CellResult:
    """One executed (or cache-served, degraded, or quarantined) cell.

    ``stats``/``metrics`` are the classic payload; ``failure`` is set (and
    ``stats`` is ``None``) for quarantined cells, ``degraded`` names the
    failure kinds that pushed a fast cell onto the agent engine, and
    ``simulated`` counts the trials this cell actually ran (0 for cache
    hits and quarantined cells).
    """

    cell: Cell
    stats: TrialStats | None
    metrics: Mapping[str, Any]
    cached: bool
    failure: CellFailure | None = None
    degraded: tuple[str, ...] = ()
    simulated: int = 0

    @property
    def quarantined(self) -> bool:
        return self.failure is not None


@dataclass(frozen=True)
class StudyResult:
    """Everything :func:`run_study` produced for one study."""

    study: Study
    cells: tuple[CellResult, ...]
    table: ResultTable
    cache_hits: int
    cache_misses: int
    simulated_trials: int

    @property
    def quarantined(self) -> tuple[CellResult, ...]:
        """The cells that failed every recovery path (queryable failures)."""
        return tuple(c for c in self.cells if c.failure is not None)

    @property
    def degraded(self) -> tuple[CellResult, ...]:
        """The cells served by the agent engine after fast-kernel failure."""
        return tuple(c for c in self.cells if c.degraded)


def _set_path(config: dict[str, Any], path: str, value: Any) -> None:
    parts = path.split(".")
    target = config
    for part in parts[:-1]:
        nxt = target.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            target[part] = nxt
        target = nxt
    target[parts[-1]] = value


def expand_cell(study: Study, index: int, bindings: Mapping[str, Any]) -> Cell:
    """Resolve one cell's bindings into a concrete scenario + execution plan."""
    literal = {
        key: value for key, value in bindings.items() if not _is_spec(value)
    }
    literal.setdefault("cell_index", index)
    resolved = {key: _resolve(value, literal) for key, value in bindings.items()}
    resolved["cell_index"] = literal["cell_index"]

    config: dict[str, Any] = {}
    reserved: dict[str, Any] = {}
    for key, value in study.sweep.base.items():
        root = key.split(".", 1)[0]
        if root in RESERVED_FIELDS:
            reserved[key] = _resolve(value, resolved)
        elif root in SCENARIO_FIELDS:
            _set_path(config, key, _resolve(value, resolved))
        else:
            raise ConfigurationError(
                f"sweep base key {key!r} is neither a scenario field nor a "
                f"reserved execution field; known roots: "
                f"{', '.join(SCENARIO_FIELDS + RESERVED_FIELDS)}"
            )
    for key, value in resolved.items():
        root = key.split(".", 1)[0]
        if root in RESERVED_FIELDS:
            reserved[key] = value
        elif root in SCENARIO_FIELDS:
            _set_path(config, key, value)
    missing = [name for name in ("algorithm", "n", "nests") if name not in config]
    if missing:
        raise ConfigurationError(
            f"sweep cell {index} is missing required scenario field(s): {missing}"
        )
    scenario = Scenario.from_dict(config)

    trials = reserved.get("trials", study.trials)
    trial_start = reserved.get("trial_start", 0)
    backend = reserved.get("backend", study.backend)
    if trials < 1:
        raise ConfigurationError(f"cell {index}: trials must be >= 1, got {trials}")
    if trial_start < 0:
        raise ConfigurationError(
            f"cell {index}: trial_start must be >= 0, got {trial_start}"
        )
    return Cell(
        index=index,
        bindings=dict(resolved),
        scenario=scenario,
        trials=int(trials),
        trial_start=int(trial_start),
        backend=str(backend),
    )


def expand_study(study: Study) -> list[Cell]:
    """All cells of a study, resolved and validated."""
    return [
        expand_cell(study, index, bindings)
        for index, bindings in enumerate(study.sweep.cells())
    ]


def _table_row(cell: Cell, metrics: Mapping[str, Any]) -> dict[str, Any]:
    row: dict[str, Any] = {}
    for key, value in cell.bindings.items():
        if key in RESERVED_FIELDS or key == "cell_index":
            continue
        if isinstance(value, (bool, int, float, str)):
            row[key] = value
        elif value is None and key.split(".", 1)[0] not in SCENARIO_FIELDS:
            row[key] = value
    for key, value in metrics.items():
        if key in row:
            raise ConfigurationError(
                f"metric column {key!r} collides with a sweep variable of "
                "the same name; rename one of them"
            )
        row[key] = value
    return row


def run_study(
    study: Study,
    backend: str | None = None,
    workers: int | None = None,
    cache: "ResultCache | str | None" = "auto",
    batch_chunk: int | None = None,
    pool: "WorkerPool | None" = None,
    policy: "ExecutionPolicy | None" = None,
) -> StudyResult:
    """Execute a study cell by cell, serving repeats from the cache.

    A thin frontend over :class:`repro.api.scheduler.CellScheduler` — the
    CLI today and the study-service daemon tomorrow drive the same
    executor.  Every cache miss expands into ``trials`` per-trial
    scenarios and runs through :func:`repro.api.run_batch` (so homogeneous
    cells ride the trial-parallel batch kernels, and ``workers`` fans
    trials out over processes).  When ``workers > 1`` a single persistent
    :class:`~repro.api.runner.WorkerPool` serves **every** cell of the
    study — worker processes fork once per study, not once per cell; pass
    your own via ``pool=`` to share it across studies (callers owning the
    pool also own its shutdown).  Results are deterministic for any
    ``workers`` / ``batch_chunk`` / ``pool`` / ``policy`` / cache state: a
    warm re-run returns a bit-identical
    :class:`~repro.api.results.ResultTable` while simulating nothing.

    ``policy`` (an :class:`~repro.api.runner.ExecutionPolicy`) controls
    the supervised dispatch's deadlines and retry/backoff, degradation,
    and quarantine; the default has quarantine on, so one poisoned cell
    becomes a structured failure row instead of aborting the sweep.

    ``cache="auto"`` uses ``$REPRO_CACHE_DIR`` when set (else no cache);
    pass a path or :class:`~repro.api.cache.ResultCache` to pin one, or
    ``None`` to disable.
    """
    from repro.api.scheduler import CellScheduler

    with CellScheduler(
        study,
        backend=backend,
        workers=workers,
        cache=cache,
        batch_chunk=batch_chunk,
        pool=pool,
        policy=policy,
    ) as scheduler:
        return scheduler.run()


# -- the study registry ------------------------------------------------------

#: Builds a study from runner-style arguments (``quick`` grids, seed, and
#: per-experiment overrides).
StudyFactory = Callable[..., Study]


@dataclass(frozen=True)
class StudyEntry:
    name: str
    factory: StudyFactory
    description: str = ""


class StudyRegistry:
    """Name -> study factory, the ``--list-studies`` population."""

    def __init__(self) -> None:
        self._entries: dict[str, StudyEntry] = {}

    def register(
        self, name: str, factory: StudyFactory, description: str = "", replace: bool = False
    ) -> None:
        if name in self._entries and not replace:
            raise ConfigurationError(f"study {name!r} already registered")
        self._entries[name] = StudyEntry(name, factory, description)

    def get(self, name: str) -> StudyEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown study {name!r}; known: {', '.join(self.names())}"
            ) from None

    def build(self, name: str, **kwargs: Any) -> Study:
        """Instantiate a registered study (``quick=``, ``base_seed=``, ...)."""
        return self.get(name).factory(**kwargs)

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def describe(self) -> list[tuple[str, str]]:
        return [(entry.name, entry.description) for entry in self._entries.values()]

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide registry of named studies (populated by
#: :mod:`repro.experiments` on import).
STUDIES = StudyRegistry()
