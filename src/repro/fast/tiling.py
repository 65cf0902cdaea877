"""Ant-axis tiling policy for the batch kernels (ROADMAP item 5).

At n = 10^6 a single ``(trials, ants)`` float64 scratch plane is 8 MB *per
trial row*; the unperturbed simple kernel keeps three of them (coins,
probabilities, and the optional quality multipliers) plus a matcher
scratch proportional to ``trials * ants``.  Tiling bounds all of that: the
per-round elementwise work proceeds in ``REPRO_TILE_ANTS``-wide column
tiles staged through the existing :mod:`~repro.fast.arena`, and the
greedy-matching resolver runs per trial over an ``n``-key space, so the
float scratch is ``O(trials * tile)`` and the matcher scratch ``O(n)`` —
peak bytes stop growing with ``trials * n`` beyond the tile width.

**Tiling is bit-invisible.**  The draw schedule is defined over *global*
ant indices: each trial's per-round coin (and flip, and Gaussian) fill
consumes its stream in ant order whether drawn in one ``n``-wide call or
in consecutive tile-wide chunks — numpy ``Generator`` methods fill
element-wise from the stream, so ``random(out=row[lo:hi])`` over
consecutive tiles is the *same* stream consumption as ``random(out=row)``
(pinned by ``tests/test_tiling.py`` and the golden-digest tile matrix).
Matcher choices are drawn per trial before resolution, and trials occupy
disjoint key ranges, so per-trial segmented resolution returns the same
pair set as the batched resolver.  Consequently ``REPRO_TILE_ANTS`` is a
pure performance knob, exactly like the kernel backend: every tile width
(including widths that do not divide ``n``) reproduces the committed
golden digests.

Settings (the :func:`resolve_tile_width` contract):

- unset / blank / ``"auto"`` — tile at :data:`DEFAULT_TILE_ANTS` once
  ``n`` exceeds :data:`AUTO_TILE_THRESHOLD`; small colonies run untiled
  (one tile of width ``n`` would only add loop overhead);
- ``"none"`` / ``"off"`` / ``"0"`` — tiling disabled at any ``n``;
- a positive integer — that tile width, verbatim (widths ``>= n`` run
  as a single tile);
- anything else raises :class:`~repro.exceptions.ConfigurationError`
  (:func:`repro.knobs.tile_ants`).
"""

from __future__ import annotations

from typing import Iterator

from repro import knobs

#: Auto-policy tile width: 16 Ki ants keeps one float64 tile row at
#: 128 KiB — comfortably cache-sized — while the per-round Python loop
#: stays at ``n / 16384`` iterations per plane (62 at n = 10^6).
DEFAULT_TILE_ANTS = 16_384

#: Colonies at or below this size run untiled under the auto policy: the
#: full plane is already no wider than two default tiles, so tiling would
#: trade nothing for loop overhead.
AUTO_TILE_THRESHOLD = 32_768


def resolve_tile_width(n: int, setting: str | None = None) -> int | None:
    """The effective tile width for colonies of ``n`` ants, or ``None``.

    ``None`` means "run the untiled fast path".  ``setting`` overrides the
    ``$REPRO_TILE_ANTS`` lookup (tests inject values without touching the
    process environment) and is parsed by the same rule: a malformed
    value raises :class:`~repro.exceptions.ConfigurationError`.
    """
    width = knobs.tile_ants(setting)
    if width is None:
        width = DEFAULT_TILE_ANTS if n > AUTO_TILE_THRESHOLD else 0
    # A single full-width tile IS the untiled path.
    return width if 0 < width < n else None


def tile_spans(n: int, tile: int) -> Iterator[tuple[int, int]]:
    """``(lo, hi)`` column spans covering ``0..n`` in ``tile``-wide steps.

    The final span is the remainder when ``tile`` does not divide ``n`` —
    tiling must be exact for every width, not just divisors.
    """
    for lo in range(0, n, tile):
        yield lo, min(n, lo + tile)
