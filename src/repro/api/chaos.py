"""Deterministic chaos injection for the execution stack.

The supervised runner's whole promise — a killed worker, a hung chunk, a
poisoned kernel all recover bit-identically — is only testable if faults
can be injected *deterministically*: this worker, this chunk, this
attempt, every run.  This module is that trigger.  A chaos **plan** is a
list of entries, each matching a point in a chunk's execution and naming
an action; the plan travels through the ``$REPRO_CHAOS`` environment
variable (inline JSON or ``@/path/to/plan.json``, read by
:func:`repro.knobs.chaos`) so it crosses the ``fork`` boundary into
workers without any API surface.

An entry is a JSON object::

    {"scope": "cell0",     # run_batch call, "*" matches any
     "task": 1,            # chunk index within the call, or "*" / [0, 2]
     "attempt": 0,         # retry attempt number, or "*" / [0, 1]
     "kind": "batch",      # task kind ("batch"/"single"), or "*"
     "phase": "start",     # "start" (before simulating) or "result"
                           # (after packing the chunk, before return)
     "action": "kill",     # kill | stall | raise | flake
     "seconds": 30}        # stall duration (stall only)

Actions: ``kill`` SIGKILLs the worker (pool sees ``BrokenProcessPool``),
``stall`` sleeps past the chunk deadline (pool sees ``ChunkTimeout``),
``raise`` raises :class:`ChaosError` — a stand-in for a deterministic
kernel crash, *not* retryable at the chunk level — and ``flake`` raises a
retryable :class:`~repro.exceptions.WorkerCrash`, modeling a transient
infrastructure error.

The hook (:func:`maybe_inject`) only runs inside ``_run_task_packed`` —
the worker-side entrypoint — never on the serial in-process path, so a
``kill`` can never take down the parent.  A switch word such as
``$REPRO_CHAOS=1`` (the CI chaos-smoke form) means an empty plan.  A value
that is neither a switch word nor a readable JSON plan, or a plan with an
entry that is not an object naming one of the four actions, raises
:class:`~repro.exceptions.ConfigurationError` naming the variable: a
mistyped plan must not pass for an undisturbed run.  ``run_batch`` reads
the plan once per call before it dispatches, so a bad plan fails a serial
run exactly as it fails a parallel one.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any

from repro import knobs
from repro.exceptions import ReproError, WorkerCrash


class ChaosError(ReproError):
    """Raised by a ``raise`` chaos entry: a simulated deterministic crash."""


def active_plan() -> list[dict[str, Any]]:
    """The current process's chaos plan (re-read per call: env may change)."""
    return knobs.chaos()


def _matches(selector: Any, value: Any, default: Any = "*") -> bool:
    if selector is None:
        selector = default
    if selector == "*":
        return True
    if isinstance(selector, list):
        return value in selector
    return selector == value


def maybe_inject(
    scope: str | None,
    task: int,
    attempt: int,
    kind: str,
    phase: str,
) -> None:
    """Fire the first plan entry matching this execution point, if any.

    Called from the worker entrypoint with the chunk's coordinates; a
    matching ``kill`` never returns.  With no plan this is one env read
    and a parse of at most a few bytes — negligible on the clean path.
    """
    plan = active_plan()
    if not plan:
        return
    for entry in plan:
        if not _matches(entry.get("scope"), scope or "*"):
            continue
        if not _matches(entry.get("task"), task):
            continue
        if not _matches(entry.get("attempt"), attempt, default=0):
            continue
        if not _matches(entry.get("kind"), kind):
            continue
        if entry.get("phase", "start") != phase:
            continue
        _fire(entry)
        return


def _fire(entry: dict[str, Any]) -> None:
    action = entry["action"]
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "stall":
        time.sleep(float(entry.get("seconds", 60.0)))
    elif action == "raise":
        raise ChaosError(entry.get("message", "chaos: injected failure"))
    elif action == "flake":
        raise WorkerCrash(entry.get("message", "chaos: injected flake"))
