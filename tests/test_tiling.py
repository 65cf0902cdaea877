"""Ant-axis tiling: policy contract, bit-invisibility foundations, memory.

Four layers, smallest to largest:

1. the :mod:`repro.fast.tiling` policy functions (width resolution, span
   generation — including non-divisor widths);
2. the numpy-stream identities the whole design rests on — consecutive
   tile-wide draws consume a ``Generator`` stream exactly like one
   full-width draw (if numpy ever changed this, tiling would silently
   stop being bit-invisible: this suite turns that into a loud failure);
3. the segmented matcher resolution (same pair set as the batched
   resolver, ``O(n)`` scratch) and the tile-aware chunk policy;
4. the arena release/high-water API and a marked-slow n = 10^5 smoke
   asserting the tiled kernel's peak allocation bound via tracemalloc.

The end-to-end bit-identity statement lives in
``tests/test_golden_digests.py`` (the ``REPRO_TILE_ANTS`` matrix); the
study-level cross-check (tiled and untiled runs fold to ``equals``-
identical tables, cold and warm) is :class:`TestTiledVsUntiledTables`.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from repro.api import ResultCache, Study, Sweep, grid, nests_spec, run_study
from repro.api.runner import (
    MAX_DEFAULT_CHUNK,
    MAX_STATE_ELEMS,
    MIN_DEFAULT_CHUNK,
    default_batch_chunk,
)
from repro.exceptions import ConfigurationError
from repro.fast.arena import Arena, arena_stats, shared_arena
from repro.fast.batch_matcher import match_pairs_batch
from repro.fast.tiling import (
    AUTO_TILE_THRESHOLD,
    DEFAULT_TILE_ANTS,
    resolve_tile_width,
    tile_spans,
)


# -- width resolution --------------------------------------------------------


class TestResolveTileWidth:
    def test_disabled_spellings(self):
        for setting in ("none", "off", "0", "None", " OFF "):
            assert resolve_tile_width(10**6, setting) is None

    def test_auto_small_n_untiled(self):
        assert resolve_tile_width(AUTO_TILE_THRESHOLD, "") is None
        assert resolve_tile_width(128, "auto") is None

    def test_auto_large_n_tiled(self):
        assert resolve_tile_width(AUTO_TILE_THRESHOLD + 1, "") == DEFAULT_TILE_ANTS
        assert resolve_tile_width(10**6, "auto") == DEFAULT_TILE_ANTS

    def test_explicit_width(self):
        assert resolve_tile_width(10**6, "4096") == 4096
        assert resolve_tile_width(128, "48") == 48

    def test_width_at_or_above_n_is_untiled(self):
        # A single full-width tile IS the untiled path; report it as such.
        assert resolve_tile_width(128, "128") is None
        assert resolve_tile_width(128, "135") is None
        assert resolve_tile_width(128, "1000") is None

    @pytest.mark.parametrize("setting", ["ants", "-5", "2.5"])
    def test_garbage_is_rejected(self, setting):
        # A typo must stop the run, not silently pick a tile width.
        with pytest.raises(ConfigurationError, match="REPRO_TILE_ANTS"):
            resolve_tile_width(10**6, setting)

    def test_env_lookup(self, monkeypatch):
        monkeypatch.setenv("REPRO_TILE_ANTS", "777")
        assert resolve_tile_width(10**6) == 777
        monkeypatch.delenv("REPRO_TILE_ANTS")
        assert resolve_tile_width(10**6) == DEFAULT_TILE_ANTS


class TestTileSpans:
    def test_exact_divisor(self):
        assert list(tile_spans(12, 4)) == [(0, 4), (4, 8), (8, 12)]

    def test_remainder_final_span(self):
        assert list(tile_spans(10, 4)) == [(0, 4), (4, 8), (8, 10)]

    def test_single_span_when_tile_covers_n(self):
        assert list(tile_spans(7, 7)) == [(0, 7)]
        assert list(tile_spans(7, 100)) == [(0, 7)]

    def test_spans_partition_exactly(self):
        for n, tile in ((1, 1), (128, 48), (1000, 135), (65536, 16384)):
            spans = list(tile_spans(n, tile))
            assert spans[0][0] == 0 and spans[-1][1] == n
            for (_, hi_a), (lo_b, _) in zip(spans, spans[1:]):
                assert hi_a == lo_b


# -- the stream identities tiling rests on -----------------------------------


class TestStreamIdentity:
    """Tile-wide sequential draws == one full-width draw, per method."""

    def test_uniform_out_chunks(self):
        full = np.random.default_rng(7).random(1000)
        tiled = np.empty(1000)
        rng = np.random.default_rng(7)
        for lo, hi in tile_spans(1000, 135):
            rng.random(out=tiled[lo:hi])
        assert np.array_equal(full, tiled)

    def test_uniform_size_chunks(self):
        # flip_tile's `rng.random(width)` form.
        full = np.random.default_rng(9).random(1000)
        rng = np.random.default_rng(9)
        tiled = np.concatenate(
            [rng.random(hi - lo) for lo, hi in tile_spans(1000, 64)]
        )
        assert np.array_equal(full, tiled)

    def test_standard_normal_out_chunks(self):
        full = np.random.default_rng(11).standard_normal(1000)
        tiled = np.empty(1000)
        rng = np.random.default_rng(11)
        for lo, hi in tile_spans(1000, 333):
            rng.standard_normal(out=tiled[lo:hi])
        assert np.array_equal(full, tiled)

    def test_compare_commutes_with_chunking(self):
        # `random(n) < p` == `random(out=buf); less(buf, p)` per chunk.
        p = np.random.default_rng(0).random(1000)
        full = np.random.default_rng(13).random(1000) < p
        tiled = np.empty(1000, dtype=bool)
        rng = np.random.default_rng(13)
        buf = np.empty(1000)
        for lo, hi in tile_spans(1000, 100):
            rng.random(out=buf[lo:hi])
            np.less(buf[lo:hi], p[lo:hi], out=tiled[lo:hi])
        assert np.array_equal(full, tiled)


# -- segmented matcher resolution --------------------------------------------


class TestSegmentedMatcher:
    @staticmethod
    def _pair_set(sel_src, sel_dst):
        # Materialize immediately: a compiled backend's resolver returns
        # arena views valid only until its next call (the kernels consume
        # them in place), so pair sets must be captured per call, not
        # compared as live arrays across calls.
        return set(zip(np.asarray(sel_src).tolist(), np.asarray(sel_dst).tolist()))

    def test_same_pair_set_as_batched(self):
        rng = np.random.default_rng(21)
        wants = rng.random((6, 50)) < 0.4
        batched = self._pair_set(
            *match_pairs_batch(
                wants, [np.random.default_rng(100 + b) for b in range(6)]
            )
        )
        segmented = self._pair_set(
            *match_pairs_batch(
                wants,
                [np.random.default_rng(100 + b) for b in range(6)],
                segmented=True,
            )
        )
        assert batched == segmented

    def test_rows_without_attempts(self):
        wants = np.zeros((4, 20), dtype=bool)
        wants[1, 3] = wants[1, 7] = wants[3, 0] = True
        rngs = [np.random.default_rng(b) for b in range(4)]
        got = self._pair_set(*match_pairs_batch(wants, rngs, segmented=True))
        rngs2 = [np.random.default_rng(b) for b in range(4)]
        ref = self._pair_set(*match_pairs_batch(wants, rngs2))
        assert got == ref

    def test_no_attempts_at_all(self):
        wants = np.zeros((3, 10), dtype=bool)
        sel_src, sel_dst = match_pairs_batch(
            wants, [np.random.default_rng(b) for b in range(3)], segmented=True
        )
        assert len(sel_src) == 0 and len(sel_dst) == 0

    def test_segmented_keys_are_global_int64(self):
        rng = np.random.default_rng(33)
        wants = rng.random((5, 40)) < 0.5
        sel_src, sel_dst = match_pairs_batch(
            wants,
            [np.random.default_rng(b) for b in range(5)],
            segmented=True,
        )
        assert sel_src.dtype == np.int64
        # Keys land in their trial's global range, not tile-local 0..n.
        assert sel_src.max() >= 40  # some pair beyond trial 0
        assert (sel_src // 40 == sel_dst // 40).all()


# -- tile-aware chunk policy -------------------------------------------------


class TestDefaultBatchChunk:
    def test_classic_operating_point(self):
        assert default_batch_chunk(4096) == 64

    def test_small_n_ceiling(self):
        assert default_batch_chunk(1) == MAX_DEFAULT_CHUNK
        assert default_batch_chunk(128) == MAX_DEFAULT_CHUNK

    def test_tiled_regime_keeps_floor(self):
        # Untiled 65536 would hit the MIN floor on scratch grounds; the
        # tile-aware scratch term keeps it there, the state cap agrees.
        assert default_batch_chunk(65536) == MIN_DEFAULT_CHUNK

    def test_million_ants_state_capped(self):
        assert default_batch_chunk(10**6) == MAX_STATE_ELEMS // 10**6 == 8

    def test_gargantuan_single_trial_chunks(self):
        assert default_batch_chunk(MAX_STATE_ELEMS) == 1
        assert default_batch_chunk(MAX_STATE_ELEMS * 4) == 1

    def test_never_below_one(self):
        for n in (1, 4096, 10**6, 10**9):
            assert default_batch_chunk(n) >= 1

    def test_explicit_tile_env_widens_huge_n_chunks(self, monkeypatch):
        monkeypatch.setenv("REPRO_TILE_ANTS", "none")
        untiled = default_batch_chunk(10**6)
        monkeypatch.setenv("REPRO_TILE_ANTS", "16384")
        tiled = default_batch_chunk(10**6)
        # Both obey the state cap; the scratch term can only help.
        assert tiled == untiled == 8


# -- arena release / high-water ----------------------------------------------


class TestArenaRelease:
    def test_nbytes_tracked_incrementally(self):
        arena = Arena()
        arena.buf("a", (10, 10), np.float64)
        arena.buf("b", (5,), np.int32)
        assert arena.nbytes() == 800 + 20
        arena.buf("a", (20, 10), np.float64)  # grows: replaces backing
        assert arena.nbytes() == 1600 + 20

    def test_high_water_survives_release(self):
        arena = Arena()
        arena.buf("big", (1000, 100), np.float64)
        peak = arena.nbytes()
        released = arena.release()
        assert released == peak
        assert arena.nbytes() == 0
        assert arena.high_water_bytes == peak

    def test_release_to_target_drops_largest_first(self):
        arena = Arena()
        arena.buf("small", (10,), np.float64)  # 80 B
        arena.buf("large", (10000,), np.float64)  # 80 KB
        arena.release(target_bytes=1000)
        assert arena.nbytes() == 80  # the small survivor
        arena.buf("small", (10,), np.float64)  # still pooled: no growth
        assert arena.nbytes() == 80

    def test_release_noop_under_target(self):
        arena = Arena()
        arena.buf("x", (10,), np.float64)
        assert arena.release(target_bytes=10**6) == 0
        assert arena.nbytes() == 80

    def test_clear_resets_total(self):
        arena = Arena()
        arena.buf("x", (10,), np.float64)
        arena.clear()
        assert arena.nbytes() == 0

    def test_arena_stats_aggregates(self):
        before = arena_stats()
        arena = Arena()
        arena.buf("x", (1000,), np.float64)
        after = arena_stats()
        assert after["arenas"] >= before["arenas"] + 1
        assert after["retained_bytes"] >= before["retained_bytes"] + 8000
        assert after["high_water_bytes"] >= after["retained_bytes"]


# -- study-level cross-check -------------------------------------------------


def tiny_study() -> Study:
    return Study(
        name="tiling-study",
        sweep=Sweep(
            base={
                "algorithm": "simple",
                "nests": nests_spec("all_good", k=2),
                "seed": 11,
                "max_rounds": 10_000,
            },
            axes=(grid("n", (16, 32, 64)),),
        ),
        trials=3,
        metrics=("n_trials", "success_rate", "median_rounds"),
    )


class TestTiledVsUntiledTables:
    """The tiling acceptance cross-check at the study level: tiled and
    untiled runs fold to ``equals``-identical tables, cold and warm."""

    def test_cold_tables_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_TILE_ANTS", "none")
        untiled = run_study(tiny_study())
        monkeypatch.setenv("REPRO_TILE_ANTS", "7")  # non-divisor of 16/32/64
        tiled = run_study(tiny_study())
        assert untiled.table.equals(tiled.table)

    def test_warm_tables_identical(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setenv("REPRO_TILE_ANTS", "none")
        cold = run_study(tiny_study(), cache=cache)
        monkeypatch.setenv("REPRO_TILE_ANTS", "7")
        warm = run_study(tiny_study(), cache=cache)
        assert warm.cache_hits == 3 and warm.simulated_trials == 0
        assert cold.table.equals(warm.table)


# -- the n = 10^5 peak-memory smoke ------------------------------------------


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_RUN_SLOW", "") != "1",
    reason="large-n scale smoke; set REPRO_RUN_SLOW=1 (CI scale-smoke job)",
)
def test_tiled_peak_allocation_bound_at_1e5(monkeypatch):
    """Tiled n = 10^5 peaks strictly below untiled, by the scratch margin.

    What tiling removes is the ``O(trials * n)`` float64 scratch (coins /
    prob planes) and the ``O(trials * n)`` matcher ``q`` array; what it
    deliberately keeps are the int32/bool state planes and the
    attempts-sized matcher key transients, which an untiled run carries
    identically.  So the honest memory statement — and the one the bench
    records on the full n-curve — is *relative*: the tiled run's
    tracemalloc peak must sit well below the untiled run's, with the gap
    on the order of the scratch it deleted.  (Measured ratio ~0.69 at
    this shape; asserted < 0.85 for slack across numpy versions.)
    """
    from repro.api import run_batch
    from repro.api.scenario import Scenario
    from repro.model.nests import NestConfig

    n, trials = 100_000, 4
    scenarios = [
        Scenario(
            algorithm="simple",
            n=n,
            nests=NestConfig(qualities=(0.3, 0.9)),
            seed=s,
        )
        for s in range(trials)
    ]

    def traced_peak(tile_setting: str) -> int:
        monkeypatch.setenv("REPRO_TILE_ANTS", tile_setting)
        # Warm pass: arena growth, numpy internals, lazy imports — then
        # drop the arena so both measured runs rebuild identical pools.
        reports = run_batch(scenarios, workers=1, batch_chunk=trials)
        assert all(r.converged for r in reports)
        shared_arena().release()
        tracemalloc.start()
        run_batch(scenarios, workers=1, batch_chunk=trials)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    untiled = traced_peak("none")
    tiled = traced_peak("auto")
    assert tiled < 0.85 * untiled, (
        f"tiled peak {tiled} bytes vs untiled {untiled} at n={n}: tiling "
        "no longer removes the full-width scratch planes"
    )
