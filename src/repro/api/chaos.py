"""Deterministic chaos injection for the execution stack.

The supervised runner's whole promise — a killed worker, a hung chunk, a
poisoned kernel all recover bit-identically — is only testable if faults
can be injected *deterministically*: this worker, this chunk, this
attempt, every run.  This module is that trigger.  A chaos **plan** is a
list of entries, each matching a point in a chunk's execution and naming
an action; the plan travels through the ``$REPRO_CHAOS`` environment
variable (inline JSON or ``@/path/to/plan.json``) so it crosses the
``fork`` boundary into workers without any API surface.

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
``kill`` can never take down the parent.  ``$REPRO_CHAOS`` values of
``"1"``/``"on"``/``"true"`` enable the machinery with an empty plan (the
CI chaos-smoke switch), and malformed values parse as an empty plan: bad
chaos config must degrade to "no chaos", never break a real run.
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path
from typing import Any

from repro.exceptions import ReproError, WorkerCrash

CHAOS_ENV = "REPRO_CHAOS"

#: ``$REPRO_CHAOS`` values that enable chaos with an empty plan.
_SWITCH_VALUES = {"1", "on", "true", "yes"}

_ACTIONS = {"kill", "stall", "raise", "flake"}


class ChaosError(ReproError):
    """Raised by a ``raise`` chaos entry: a simulated deterministic crash."""


def parse_plan(value: str | None) -> list[dict[str, Any]]:
    """Parse a ``$REPRO_CHAOS`` value into a list of plan entries.

    Accepts inline JSON (a list, or an object with an ``entries`` key),
    an ``@/path`` or bare-path reference to a JSON file, or a bare
    on-switch value.  Anything unparseable is an empty plan.
    """
    if not value:
        return []
    text = value.strip()
    if not text:
        return []
    if text.lower() in _SWITCH_VALUES:
        return []
    if text.startswith("@"):
        text = text[1:]
    if not text.startswith(("[", "{")):
        try:
            text = Path(text).read_text(encoding="utf-8")
        except OSError:
            return []
    try:
        data = json.loads(text)
    except ValueError:
        return []
    if isinstance(data, dict):
        data = data.get("entries", [])
    if not isinstance(data, list):
        return []
    entries = []
    for entry in data:
        if isinstance(entry, dict) and entry.get("action") in _ACTIONS:
            entries.append(entry)
    return entries


def active_plan() -> list[dict[str, Any]]:
    """The current process's chaos plan (re-read per call: env may change)."""
    return parse_plan(os.environ.get(CHAOS_ENV))


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
