"""Opt-in runtime sanitizer for the batch kernels (``REPRO_SANITIZE=1``).

The static rules catch what the AST can see; this module catches what it
cannot — numerical state going bad *at run time*.  When the environment
variable ``REPRO_SANITIZE`` is on (``1``/``true``/``yes``/``on``; see
:func:`repro.knobs.sanitize`), :func:`sanitized` wraps a kernel entry
point so that every invocation:

- runs under ``np.errstate(invalid="raise", over="raise")``, turning
  silent NaN production and float overflow inside the round loop into
  immediate ``FloatingPointError``;
- checks the returned results for conservation violations — a
  :class:`~repro.fast.results.FastRunResult` must have finite,
  non-negative ``final_counts`` summing to exactly ``n`` (ants are
  neither created nor destroyed), and every committed history row must
  conserve population too; a ``SpreadResult`` history must stay within
  ``[0, n]`` and be non-decreasing (informedness is monotone);
- audits the shared arena for aliasing: two distinct buffer names whose
  backing storage overlaps means a ``buf()`` implementation bug
  (:func:`check_arena_aliasing`).

When ``REPRO_SANITIZE`` is unset or off (the default, and the benchmarked
configuration) the wrapper calls the kernel untouched — no behavior
change, bit-identical goldens.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, TypeVar

import numpy as np

from repro import knobs

F = TypeVar("F", bound=Callable[..., Any])


class SanitizeError(AssertionError):
    """A kernel invariant violated at run time (only under REPRO_SANITIZE)."""


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for runtime kernel checks.

    Read per call, not at import, so tests can toggle the environment.
    """
    return knobs.sanitize()


def _fail(kernel: str, message: str) -> None:
    raise SanitizeError(f"[REPRO_SANITIZE] {kernel}: {message}")


def check_run_result(result: Any, n: int, kernel: str) -> None:
    """Population-conservation checks for one FastRunResult-like object."""
    counts = np.asarray(result.final_counts)
    if not np.all(np.isfinite(counts)):
        _fail(kernel, f"non-finite final_counts: {counts!r}")
    if np.any(counts < 0):
        _fail(kernel, f"negative final_counts: {counts!r}")
    total = int(counts.sum())
    if total != n:
        _fail(kernel, f"final_counts sum {total} != n {n} (ants not conserved)")
    history = getattr(result, "population_history", None)
    if history is not None and len(history):
        row_sums = np.asarray(history).sum(axis=1)
        if not np.all(row_sums == n):
            bad = int(np.argmax(row_sums != n))
            _fail(
                kernel,
                f"population_history row {bad} sums to "
                f"{int(row_sums[bad])} != n {n}",
            )


def check_spread_result(result: Any, n: int, kernel: str) -> None:
    """Monotone-informedness checks for one SpreadResult-like object."""
    history = getattr(result, "informed_history", None)
    if history is None or not len(history):
        return
    informed = np.asarray(history)
    if np.any(informed < 0) or np.any(informed > n):
        _fail(kernel, f"informed_history outside [0, {n}]: {informed!r}")
    if np.any(np.diff(informed) < 0):
        _fail(kernel, "informed_history decreased (information cannot be lost)")


def check_arena_aliasing(arena: Any, kernel: str = "<arena>") -> None:
    """Fail if two named arena buffers share backing storage."""
    try:
        arena.check_aliasing()
    except AssertionError as err:
        _fail(kernel, str(err))


def _check_results(results: Any, n: int, kernel: str) -> None:
    if not isinstance(results, Iterable):
        results = [results]
    for result in results:
        if hasattr(result, "final_counts"):
            check_run_result(result, n, kernel)
        elif hasattr(result, "informed_history"):
            check_spread_result(result, n, kernel)


def sanitized(kernel: F) -> F:
    """Wrap a batch-kernel entry point with the runtime checks.

    The wrapped kernel must take ``n`` as its first positional argument
    (all four batch kernels do).  With ``REPRO_SANITIZE`` unset the
    original function runs untouched.
    """

    @functools.wraps(kernel)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not sanitize_enabled():
            return kernel(*args, **kwargs)
        n = int(kwargs["n"] if "n" in kwargs else args[0])
        with np.errstate(invalid="raise", over="raise"):
            results = kernel(*args, **kwargs)
        _check_results(results, n, kernel.__name__)
        from repro.fast.arena import shared_arena

        check_arena_aliasing(shared_arena(), kernel.__name__)
        return results

    return wrapper  # type: ignore[return-value]
