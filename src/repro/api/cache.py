"""Content-addressed cache for sweep cells, over a pluggable entry store.

Every sweep cell — one scenario family, ``trials`` seeded trials, a metric
set, a resolved backend — is a pure function of its declaration, so its
aggregate result can be cached by content address: the SHA-256 of the
cell's canonical JSON payload (which leans on :meth:`Scenario.to_dict`
being canonical — sorted params, normalized scalars).  A re-run of a study
then only simulates the cells it has never seen, and an interrupted sweep
resumes from the cells that already finished.

Entries store the cell's :class:`~repro.sim.run.TrialStats` plus the
evaluated metric columns (never the raw reports — histories would dwarf
the results).  The payload is stored alongside and verified on load, so a
truncated or corrupted entry is treated as a miss and recomputed, never
trusted.  ``CACHE_FORMAT_VERSION`` is part of every key: changing the
entry schema invalidates old entries instead of misreading them.

Persistence is delegated to a :class:`~repro.api.store.CellStore`
(``store=``): :class:`~repro.api.store.DirectoryStore` — one JSON file
per entry, the classic layout and the default — or
:class:`~repro.api.store.SQLiteStore` — sharded SQLite databases with
WAL, an LRU clock, and byte-budget eviction, built for the long-running
study service.  The cache semantics (verification, accounting) are
identical over either.

The default location is ``$REPRO_CACHE_DIR`` when set (a directory
store); otherwise caching is off unless a cache (or path) is passed
explicitly — test suites and one-off scripts shouldn't silently grow a
cache directory.  The SQLite store is chosen explicitly: the service's
``--store`` option, or ``ResultCache(root, store=...)``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro import knobs
from repro.api.store import CellStore, DirectoryStore, StoreDefect
from repro.sim.run import TrialStats

#: Bump when the entry schema or key payload layout changes; old entries
#: become unreachable (different key) rather than misread.
CACHE_FORMAT_VERSION = 1

#: Most defect records retained by :attr:`ResultCache.defects` — a
#: long-lived daemon must observe corruption without the log becoming an
#: unbounded memory leak.  Older records drop off; the total count
#: survives in :meth:`ResultCache.stats`.
DEFECT_LOG_LIMIT = 256


class DefectLog(list):
    """A list with a retention cap: append drops the oldest beyond it.

    Still a real ``list`` (equality against plain lists, slicing, the
    whole surface) so existing callers and tests are untouched; only the
    growth is bounded.  ``dropped`` counts the records aged out.
    """

    def __init__(self, maxlen: int = DEFECT_LOG_LIMIT) -> None:
        super().__init__()
        self.maxlen = maxlen
        self.dropped = 0

    def append(self, item: Any) -> None:
        super().append(item)
        excess = len(self) - self.maxlen
        if excess > 0:
            del self[:excess]
            self.dropped += excess

    @property
    def total(self) -> int:
        """Defects ever recorded, including aged-out ones."""
        return len(self) + self.dropped


def stats_to_dict(stats: TrialStats) -> dict[str, Any]:
    """JSON-safe form of a :class:`TrialStats`; inverse of :func:`stats_from_dict`."""
    return {
        "n_trials": int(stats.n_trials),
        "n_converged": int(stats.n_converged),
        "rounds": [int(r) for r in stats.rounds],
        "censored_at": int(stats.censored_at),
        "chosen_nests": {
            str(nest): int(count) for nest, count in sorted(stats.chosen_nests.items())
        },
    }


def stats_from_dict(data: Mapping[str, Any]) -> TrialStats:
    """Rebuild a :class:`TrialStats` from :func:`stats_to_dict` output."""
    return TrialStats(
        n_trials=int(data["n_trials"]),
        n_converged=int(data["n_converged"]),
        rounds=np.asarray(data["rounds"], dtype=np.int64),
        censored_at=int(data["censored_at"]),
        chosen_nests={int(nest): int(count) for nest, count in data["chosen_nests"].items()},
    )


def content_key(payload: Mapping[str, Any]) -> str:
    """The content address of a cell payload: SHA-256 of canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """Per-cell entries addressed by payload hash, over a pluggable store."""

    def __init__(
        self,
        root: "str | Path | None" = None,
        *,
        store: CellStore | None = None,
    ) -> None:
        if store is None:
            if root is None:
                raise ValueError("ResultCache needs a root path or a store")
            store = DirectoryStore(root)
        self.store_backend = store
        #: The on-disk location when the store has one (directory layouts
        #: keep the historical ``cache.root`` attribute working).
        self.root = Path(root) if root is not None else getattr(store, "root", None)
        self.hits = 0
        self.misses = 0
        #: (key, reason) records for entries that *existed* but were
        #: unreadable — corruption observability (a plain missing file is
        #: a cold miss, not a defect).  Every defect is also a miss.
        #: Bounded (:data:`DEFECT_LOG_LIMIT`): long-lived daemons keep the
        #: most recent records, :meth:`stats` keeps the total count.
        self.defects: DefectLog = DefectLog()

    def _path(self, key: str) -> Path:
        """Entry path for directory-backed caches (back-compat surface)."""
        if isinstance(self.store_backend, DirectoryStore):
            return self.store_backend.path(key)
        raise TypeError(
            f"{type(self.store_backend).__name__} does not store one file "
            "per entry"
        )

    def load(
        self, payload: Mapping[str, Any]
    ) -> tuple[TrialStats, dict[str, Any]] | None:
        """The cached (stats, metrics) for a payload, or ``None`` on a miss.

        Any defect — missing entry, truncated/unparseable JSON, garbage
        bytes, schema mismatch, or a payload that doesn't round-trip to
        the same content (hash collision paranoia) — counts as a miss;
        the caller recomputes and overwrites.  Defects in entries that
        *existed* are additionally recorded in :attr:`defects` so
        corruption is observable, not silently healed.
        """
        key = content_key(payload)
        try:
            text = self.store_backend.get(key)
        except StoreDefect as error:
            self.misses += 1
            self.defects.append((key, str(error)))
            return None
        if text is None:
            self.misses += 1
            return None
        try:
            entry = json.loads(text)
            if entry["version"] != CACHE_FORMAT_VERSION:
                raise ValueError("cache format version mismatch")
            # Normalize through JSON so tuples/lists compare equal; dict
            # equality is order-insensitive, so sort_keys storage is fine.
            if entry["payload"] != json.loads(json.dumps(payload)):
                raise ValueError("payload mismatch")
            stats = stats_from_dict(entry["stats"])
            metrics = dict(entry["metrics"])
        except (ValueError, KeyError, TypeError) as error:
            self.misses += 1
            self.defects.append((key, str(error) or type(error).__name__))
            return None
        self.hits += 1
        return stats, metrics

    def store(
        self,
        payload: Mapping[str, Any],
        stats: TrialStats,
        metrics: Mapping[str, Any],
    ) -> str:
        """Persist one cell result atomically; returns its content key."""
        key = content_key(payload)
        entry = {
            "version": CACHE_FORMAT_VERSION,
            "payload": payload,
            "stats": stats_to_dict(stats),
            "metrics": dict(metrics),
        }
        # No sort_keys here: the *metrics* dict's insertion order is the
        # result-table column order, and must survive a warm read.
        self.store_backend.put(key, json.dumps(entry))
        return key

    def stats(self) -> dict[str, Any]:
        """Accounting counters plus the store's own (the ``/stats`` payload).

        ``hits``/``misses``/``defects`` are per-cache-instance; the store
        keys (``entries``/``bytes``/``evictions``/...) describe the shared
        on-disk state.
        """
        data: dict[str, Any] = {
            "hits": self.hits,
            "misses": self.misses,
            "defects": self.defects.total,
            "defects_logged": len(self.defects),
        }
        data.update(self.store_backend.stats())
        return data

    def __len__(self) -> int:
        return len(self.store_backend)


def default_cache() -> ResultCache | None:
    """A directory-store cache at ``$REPRO_CACHE_DIR``, or ``None`` (off)."""
    root = knobs.cache_dir()
    return None if root is None else ResultCache(root)


def resolve_cache(cache: "ResultCache | str | Path | None") -> ResultCache | None:
    """Normalize a ``cache=`` argument: 'auto' -> env default, path -> cache.

    Any object with ``load``/``store`` passes through untouched, so cache
    *wrappers* (the service's in-flight deduplicating cache) ride the same
    parameter.
    """
    if cache is None or cache is False:
        return None
    if cache == "auto":
        return default_cache()
    if hasattr(cache, "load") and hasattr(cache, "store"):
        return cache
    return ResultCache(cache)
