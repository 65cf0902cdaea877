"""Every ``REPRO_*`` environment knob, read in one place under one rule.

Eight variables configure a run from outside the code, one reader each
below; README.md tables them.  The rule: an unset or blank variable means
the default; a value that parses is used as given (surrounding whitespace
ignored); anything else raises
:class:`~repro.exceptions.ConfigurationError` naming the variable, echoing
the value and listing the accepted forms.  A typo therefore stops a run
instead of silently changing how it runs.

Each reader consults the environment per call, never at import, so tests
can set a variable with ``monkeypatch`` and pool workers inherit whatever
the parent holds.  The readers are only the environment step of each
knob's precedence; explicit arguments, scenario pins and
:func:`repro.fast.backends.use_backend` are applied by the callers.  Other
``REPRO_*`` names (the benchmarks' ``REPRO_BENCH_*``, for instance) are
not knobs and are ignored.

Only the standard library and :mod:`repro.exceptions` are imported, so the
kernel backends and lintkit can read their knobs without an import cycle.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, TypeVar

from repro.exceptions import ConfigurationError

T = TypeVar("T")

#: Valid ``kernel_backend`` pins and ``$REPRO_FAST_BACKEND`` values.
BACKEND_NAMES = ("auto", "cext", "numpy", "python")

_ON = ("1", "true", "yes", "on")
_OFF = ("0", "false", "no", "off")


def _read(
    name: str,
    parse: Callable[[str], T],
    accepted: str,
    default: T,
    value: str | None = None,
) -> T:
    raw = os.environ.get(name, "") if value is None else value
    text = raw.strip()
    if not text:
        return default
    try:
        return parse(text)
    # RecursionError: JSON nested deeper than the decoder can follow.
    except (ValueError, OSError, RecursionError):
        raise ConfigurationError(
            f"{name}={raw!r} is invalid; expected {accepted}"
        ) from None


def _positive(text: str) -> int:
    number = int(text)
    if number < 1:
        raise ValueError(text)
    return number


def _backend(text: str) -> str:
    if text not in BACKEND_NAMES:
        raise ValueError(text)
    return text


def _switch(text: str) -> bool:
    word = text.lower()
    if word not in _ON + _OFF:
        raise ValueError(text)
    return word in _ON


def _tile(text: str) -> int | None:
    word = text.lower()
    if word == "auto":
        return None
    return 0 if word in ("none", "off", "0") else _positive(word)


def _url(text: str) -> str:
    if not text.startswith(("http://", "https://")):
        raise ValueError(text)
    return text


def _plan(text: str) -> list:
    if text.lower() in _ON + _OFF:
        return []
    if text.startswith("@"):
        text = Path(text[1:]).read_text(encoding="utf-8")
    data = json.loads(text)
    if isinstance(data, dict):
        data = data.get("entries", [])
    if not isinstance(data, list):
        raise ValueError(text)
    return data


def workers() -> int:
    """``$REPRO_WORKERS``: worker processes (default 1)."""
    return _read("REPRO_WORKERS", _positive, "an integer >= 1", 1)


def fast_backend() -> str:
    """``$REPRO_FAST_BACKEND``: the requested kernel backend (default ``auto``)."""
    return _read(
        "REPRO_FAST_BACKEND", _backend,
        f"one of {', '.join(BACKEND_NAMES)}", "auto",
    )


def tile_ants(value: str | None = None) -> int | None:
    """``$REPRO_TILE_ANTS`` (or ``value``): ``None`` for the auto policy,
    ``0`` for tiling off, else the requested tile width."""
    return _read(
        "REPRO_TILE_ANTS", _tile,
        "auto, none, off, 0 or a positive integer", None, value,
    )


def cext_cache() -> str | None:
    """``$REPRO_CEXT_CACHE``: build directory for the compiled kernels."""
    return _read("REPRO_CEXT_CACHE", str, "a directory path", None)


def cache_dir() -> str | None:
    """``$REPRO_CACHE_DIR``: the result cache directory (default: no cache)."""
    return _read("REPRO_CACHE_DIR", str, "a directory path", None)


def service_url() -> str | None:
    """``$REPRO_SERVICE_URL``: the study daemon to route studies through."""
    return _read(
        "REPRO_SERVICE_URL", _url,
        "a URL starting with http:// or https://", None,
    )


def sanitize() -> bool:
    """``$REPRO_SANITIZE``: whether the runtime kernel sanitizer is on."""
    return _read(
        "REPRO_SANITIZE", _switch, f"{'/'.join(_ON)} or {'/'.join(_OFF)}", False
    )


def chaos() -> list[Any]:
    """``$REPRO_CHAOS``: the raw chaos-plan entries (``[]`` for no plan).

    A switch word gives an empty plan; inline JSON or ``@path`` to a JSON
    file gives a list of entries, or an object whose ``entries`` key holds
    one.
    """
    return _read(
        "REPRO_CHAOS", _plan,
        "a switch word (1/on, 0/off), inline JSON, or @path to a JSON plan",
        [],
    )
