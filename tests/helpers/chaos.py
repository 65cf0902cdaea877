"""Builders for deterministic ``$REPRO_CHAOS`` fault-injection plans.

A chaos plan (see :mod:`repro.api.chaos`) is a JSON list of entries, each
matching an execution point — run_batch scope, chunk index, retry
attempt, task kind, phase — and firing one action.  These helpers build
entries and install plans into the environment, so a test reads as its
fault scenario::

    plan_env(monkeypatch, kill(scope="cell0", task=0))
    result = run_study(study, workers=4, policy=policy, cache=None)

Entries default to ``attempt=0``: the fault fires on the first attempt
only, so the supervised retry observes a healthy substrate — the
deterministic analogue of a transient crash.  Pass ``attempt="*"`` for a
*persistent* fault (fires on every retry: the quarantine scenario).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np


def entry(action: str, **fields: Any) -> dict[str, Any]:
    """One plan entry; unspecified selectors use the harness defaults."""
    built: dict[str, Any] = {
        "action": action,
        "scope": fields.pop("scope", "*"),
        "task": fields.pop("task", "*"),
        "attempt": fields.pop("attempt", 0),
        "kind": fields.pop("kind", "*"),
        "phase": fields.pop("phase", "start"),
    }
    built.update(fields)
    return built


def kill(**fields: Any) -> dict[str, Any]:
    """SIGKILL the worker running the matched chunk."""
    return entry("kill", **fields)


def stall(seconds: float, **fields: Any) -> dict[str, Any]:
    """Hang the matched chunk for ``seconds`` (past the chunk deadline)."""
    return entry("stall", seconds=seconds, **fields)


def poison(message: str = "chaos: injected failure", **fields: Any) -> dict[str, Any]:
    """Raise a non-retryable ChaosError — a deterministic kernel crash."""
    return entry("raise", message=message, **fields)


def flake(**fields: Any) -> dict[str, Any]:
    """Raise a retryable WorkerCrash — a transient infrastructure error."""
    return entry("flake", **fields)


def plan_env(monkeypatch, *entries: dict[str, Any]) -> None:
    """Install a plan into ``$REPRO_CHAOS`` for the test's duration.

    Worker pools fork after the test body starts, so the plan propagates
    into every worker the run creates.
    """
    monkeypatch.setenv("REPRO_CHAOS", json.dumps(list(entries)))


def seeded_plan(
    seed: int,
    n_tasks: int,
    scope: str = "*",
    actions: tuple[str, ...] = ("kill", "flake"),
    n_faults: int = 2,
) -> list[dict[str, Any]]:
    """A reproducible random plan: ``n_faults`` first-attempt faults.

    Same seed, same plan — a fuzz run that fails is rerunnable verbatim.
    Only transient (attempt-0, retryable-path) actions are drawn, so any
    plan this builds must leave results bit-identical.
    """
    rng = np.random.default_rng(seed)
    tasks = rng.choice(n_tasks, size=min(n_faults, n_tasks), replace=False)
    return [
        entry(str(rng.choice(list(actions))), scope=scope, task=int(task))
        for task in tasks
    ]
