"""Reusable buffer arenas for the batch kernels.

Every round of a batch kernel needs the same handful of temporaries —
coin/stall draws, boolean scratch masks, probability rows, gathered
counts.  Allocating them per round puts the allocator (and the memset
behind ``np.zeros``/``np.where``) on the hot path thousands of times per
batch; at chunked dispatch the same cost repeats per chunk.  An
:class:`Arena` preallocates each named buffer once at full batch size,
hands out row-sliced views as trials compact out, and survives across
kernel invocations through the process-local :func:`shared_arena`, so a
worker processing many chunks of one sweep allocates its state once.

Rules of use (the kernels' discipline, not enforced machinery):

- a buffer name is owned by exactly one call site per kernel; two live
  uses must use two names;
- views are only valid until the next ``buf()`` call for the same name
  (which may reallocate on growth);
- nothing is zeroed for you — callers fill or overwrite entirely.

Buffers are grow-only *within* a workload, which is exactly right for a
sweep's homogeneous chunks: one huge-n cell keeps its peak working set
until the arena is released.  :meth:`Arena.release` is the explicit trim
(``benchmarks/bench_scale.py`` calls it between measurements), and
:func:`arena_stats` surfaces current and high-water bytes across every
arena in the process (the service ``/stats`` memory panel).
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

#: Every Arena constructed in this process, for :func:`arena_stats`.
#: Weak references: registering must not keep test-local arenas alive.
_REGISTRY: "weakref.WeakSet[Arena]" = weakref.WeakSet()
_REGISTRY_LOCK = threading.Lock()


class Arena:
    """Named numpy buffer pool: grow-only rows, exact trailing shape/dtype."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._total = 0
        #: Largest retained-bytes figure this arena ever reached; survives
        #: :meth:`release`/:meth:`clear` so the service can report the
        #: true per-worker peak, not the post-trim residue.
        self.high_water_bytes = 0
        with _REGISTRY_LOCK:
            _REGISTRY.add(self)

    def buf(self, name: str, shape: tuple[int, ...], dtype):
        """An uninitialized view of ``shape``, recycled when compatible.

        The backing allocation is reused whenever the dtype and trailing
        dimensions match and it has at least ``shape[0]`` rows; otherwise
        it is replaced (grow-only in rows, exact in everything else).
        """
        buffer = self._buffers.get(name)
        if (
            buffer is None
            or buffer.dtype != dtype
            or buffer.shape[1:] != shape[1:]
            or buffer.shape[0] < shape[0]
        ):
            if buffer is not None:
                self._total -= buffer.nbytes
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[name] = buffer
            self._total += buffer.nbytes
            if self._total > self.high_water_bytes:
                self.high_water_bytes = self._total
        return buffer[: shape[0]]

    def full(self, name: str, shape: tuple[int, ...], dtype, fill):
        """Like :meth:`buf` but filled with ``fill`` (the ``np.full`` shape)."""
        view = self.buf(name, shape, dtype)
        view.fill(fill)
        return view

    def clear(self) -> None:
        """Drop every buffer (used by tests and memory-sensitive callers)."""
        self._buffers.clear()
        self._total = 0

    def release(self, target_bytes: int = 0) -> int:
        """Trim retained buffers down to (at most) ``target_bytes``.

        Drops buffers largest-first until the retained total fits the
        target — the huge-n planes that motivated the trim go first while
        a small steady-state working set survives to keep serving its
        sweep allocation-free.  ``target_bytes=0`` (the default) drops
        everything.  Returns the number of bytes released.  High-water
        accounting is untouched: the peak is the *report*, release is the
        remedy.

        Safe at any call boundary where no kernel is mid-flight — views
        handed out earlier keep their backing arrays alive (numpy
        refcounting), they just stop being the pooled copy.
        """
        if self._total <= target_bytes:
            return 0
        released = 0
        by_size = sorted(
            self._buffers.items(), key=lambda item: item[1].nbytes, reverse=True
        )
        for name, buffer in by_size:
            if self._total <= target_bytes:
                break
            nbytes = buffer.nbytes
            del self._buffers[name]
            self._total -= nbytes
            released += nbytes
        return released

    def check_aliasing(self) -> None:
        """Assert that no two named buffers share backing storage.

        Distinct names promise distinct storage (the "one owner per name"
        rule above); overlap means a :meth:`buf` bookkeeping bug.  Called
        by the ``REPRO_SANITIZE=1`` runtime sanitizer
        (:mod:`repro.lintkit.sanitize`) after every kernel invocation.
        """
        buffers = list(self._buffers.items())
        for i, (name_a, buf_a) in enumerate(buffers):
            for name_b, buf_b in buffers[i + 1 :]:
                if np.shares_memory(buf_a, buf_b):
                    raise AssertionError(
                        f"arena buffers {name_a!r} and {name_b!r} alias "
                        "the same storage"
                    )

    def nbytes(self) -> int:
        """Total bytes currently retained (maintained incrementally)."""
        return self._total


_SHARED = threading.local()


def shared_arena() -> Arena:
    """The thread-local arena the batch kernels share.

    One kernel runs at a time per thread (``run_batch`` executes chunks
    serially per worker process), so a per-thread pool is safe and lets
    consecutive chunks of a sweep reuse each other's allocations.  The
    pool is thread-*local* precisely so that threaded callers driving
    ``run_batch`` concurrently in one process cannot alias each other's
    state buffers.
    """
    arena = getattr(_SHARED, "arena", None)
    if arena is None:
        arena = _SHARED.arena = Arena()
    return arena


def arena_stats() -> dict:
    """Process-wide arena memory panel: retained, high-water, pool count.

    Aggregates every live :class:`Arena` (each registers itself weakly at
    construction), so a threaded service daemon reports the sum over its
    worker threads' pools.  Note this is the *coordinator* process only —
    subprocess pool workers have their own arenas in their own address
    spaces.
    """
    with _REGISTRY_LOCK:
        arenas = list(_REGISTRY)
    return {
        "arenas": len(arenas),
        "retained_bytes": sum(a.nbytes() for a in arenas),
        "high_water_bytes": sum(a.high_water_bytes for a in arenas),
    }


def compact_rows(keep_index: np.ndarray, *views: np.ndarray) -> tuple[np.ndarray, ...]:
    """Compact surviving rows to the front of each view, allocation-free.

    ``keep_index`` is the sorted array of surviving row indices.  Because
    it is strictly increasing, every row moves to an index ``<=`` its own,
    so copying front-to-back within the same backing buffer never reads a
    clobbered row.  Returns the shortened views.  The Python loop runs
    once per surviving row per compaction *event* (trials converging),
    not per round — a few dozen vectorized row copies per batch.
    """
    m = len(keep_index)
    for view in views:
        for dst, src in enumerate(keep_index):
            if dst != src:
                view[dst] = view[src]
    return tuple(view[:m] for view in views)
