"""The persistent worker pool, the packed-column transport, and arena plumbing.

PR-5 contracts under test:

- ``run_study`` through a persistent :class:`~repro.api.WorkerPool` is
  bit-identical to serial execution and to per-call pools — fresh pool,
  reused pool, and ``workers=1`` must produce equal ``ResultTable``s;
- the packed-column transport reproduces every report field exactly;
- the arena recycles buffers and compacts rows without reallocation;
- the phase profiler accounts kernel time when (and only when) installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    Scenario,
    Study,
    Sweep,
    WorkerPool,
    default_batch_chunk,
    grid,
    nests_spec,
    run_batch,
    run_study,
)
import repro.api.transport as transport
from repro.fast.arena import Arena, compact_rows
from repro.fast.profiling import phase_timing
from repro.model.nests import NestConfig


def _study(trials: int = 6) -> Study:
    return Study(
        name="pool-determinism",
        sweep=Sweep(
            base={
                "algorithm": "simple",
                "nests": nests_spec("all_good", k=4),
                "seed": 11,
                "max_rounds": 20_000,
            },
            axes=(grid("n", (64, 128)),),
        ),
        trials=trials,
    )


class TestWorkerPool:
    def test_pool_reuse_determinism(self):
        """Same study: workers=1, fresh pool, reused pool — one answer."""
        study = _study()
        serial = run_study(study, workers=1, cache=None)
        fresh = run_study(study, workers=2, cache=None, batch_chunk=2)
        with WorkerPool(2) as pool:
            reused_first = run_study(
                study, cache=None, batch_chunk=2, pool=pool
            )
            reused_second = run_study(
                study, cache=None, batch_chunk=2, pool=pool
            )
        assert serial.table.equals(fresh.table)
        assert serial.table.equals(reused_first.table)
        assert serial.table.equals(reused_second.table)

    def test_pool_starts_lazily_and_only_for_parallel_work(self):
        pool = WorkerPool(2)
        assert not pool.started
        scenario = Scenario(
            algorithm="simple",
            n=64,
            nests=NestConfig.all_good(3),
            seed=5,
            max_rounds=20_000,
        )
        # A single task never spawns workers.
        run_batch(scenario.trials(2), pool=pool)
        assert not pool.started
        run_batch(scenario.trials(4), batch_chunk=2, pool=pool)
        assert pool.started
        pool.close()
        assert not pool.started

    def test_pool_of_one_stays_serial(self):
        with WorkerPool(1) as pool:
            scenario = Scenario(
                algorithm="simple",
                n=64,
                nests=NestConfig.all_good(3),
                seed=5,
                max_rounds=20_000,
            )
            run_batch(scenario.trials(4), batch_chunk=2, pool=pool)
            assert not pool.started

    def test_run_batch_pool_matches_serial(self):
        scenario = Scenario(
            algorithm="simple",
            n=128,
            nests=NestConfig.all_good(4),
            seed=31,
            max_rounds=20_000,
        )
        scenarios = scenario.trials(6)
        serial = run_batch(scenarios, workers=1)
        with WorkerPool(2) as pool:
            pooled = run_batch(scenarios, batch_chunk=2, pool=pool)
        for a, b in zip(serial, pooled):
            assert a.to_dict(include_history=True) == b.to_dict(
                include_history=True
            )


class TestTransports:
    def _reports(self, **overrides):
        base = dict(
            algorithm="simple",
            n=96,
            nests=NestConfig.binary(4, {2, 3, 4}),
            seed=77,
            max_rounds=4_000,
        )
        base.update(overrides)
        scenarios = Scenario(**base).trials(5)
        return run_batch(scenarios, workers=1), scenarios

    def test_packed_roundtrip(self):
        reports, scenarios = self._reports()
        packed = transport.pack_reports(reports)
        rebuilt = transport.unpack_reports(packed, scenarios)
        for a, b in zip(reports, rebuilt):
            assert a.to_dict(include_history=True) == b.to_dict(
                include_history=True
            )

    def test_packed_roundtrip_with_history(self):
        reports, scenarios = self._reports(record_history=True, n=48)
        packed = transport.pack_reports(reports)
        rebuilt = transport.unpack_reports(packed, scenarios)
        for a, b in zip(reports, rebuilt):
            assert np.array_equal(a.population_history, b.population_history)
            assert a.to_dict(include_history=True) == b.to_dict(
                include_history=True
            )

    def test_packed_roundtrip_without_final_counts(self):
        reports, scenarios = self._reports(
            algorithm="spread", nests=NestConfig.single_good(3)
        )
        packed = transport.pack_reports(reports)
        assert packed["final_counts"] is None
        rebuilt = transport.unpack_reports(packed, scenarios)
        for a, b in zip(reports, rebuilt):
            assert b.final_counts is None
            assert a.to_dict(include_history=True) == b.to_dict(
                include_history=True
            )

    def test_packed_length_mismatch_rejected(self):
        reports, scenarios = self._reports()
        packed = transport.pack_reports(reports)
        with pytest.raises(ValueError):
            transport.unpack_reports(packed, scenarios[:-1])


class TestBatchChunkPolicy:
    def test_size_aware_default(self):
        assert default_batch_chunk(4096) == 64
        assert default_batch_chunk(1024) == 256
        assert default_batch_chunk(2) == 512  # clamped high
        # Past the auto-tile threshold the scratch term is computed over
        # the tile width and the 2^23-element state cap takes over (the
        # full breakpoint table lives in tests/test_tiling.py).
        assert default_batch_chunk(10**6) == 8
        assert default_batch_chunk(10**9) == 1  # state-capped low

    def test_chunking_invisible_to_results(self):
        scenario = Scenario(
            algorithm="simple",
            n=64,
            nests=NestConfig.all_good(3),
            seed=9,
            max_rounds=20_000,
        )
        scenarios = scenario.trials(5)
        default = run_batch(scenarios)
        explicit = run_batch(scenarios, batch_chunk=1)
        for a, b in zip(default, explicit):
            assert a.to_dict(include_history=True) == b.to_dict(
                include_history=True
            )


class TestArena:
    def test_buffer_recycled_when_compatible(self):
        arena = Arena()
        first = arena.buf("x", (8, 16), np.int32)
        second = arena.buf("x", (4, 16), np.int32)
        assert second.base is first.base or second.base is first
        assert second.shape == (4, 16)

    def test_buffer_replaced_on_growth_or_dtype_change(self):
        arena = Arena()
        first = arena.buf("x", (4, 16), np.int32)
        grown = arena.buf("x", (8, 16), np.int32)
        assert grown.shape == (8, 16)
        retyped = arena.buf("x", (8, 16), np.int64)
        assert retyped.dtype == np.int64
        assert first.shape == (4, 16)  # old view unaffected

    def test_full_fills(self):
        arena = Arena()
        view = arena.full("y", (3, 4), np.int32, 7)
        assert (view == 7).all()

    def test_nbytes_and_clear(self):
        arena = Arena()
        arena.buf("x", (4, 16), np.int64)
        assert arena.nbytes() == 4 * 16 * 8
        arena.clear()
        assert arena.nbytes() == 0

    def test_compact_rows_matches_fancy_indexing(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 100, (10, 7))
        b = rng.random((10, 3))
        keep = np.array([0, 3, 4, 8])
        expected_a, expected_b = a[keep].copy(), b[keep].copy()
        ca, cb = compact_rows(keep, a, b)
        assert np.array_equal(ca, expected_a)
        assert np.array_equal(cb, expected_b)
        assert ca.base is a  # compacted in place, no reallocation


class TestPhaseProfiling:
    def test_profile_captures_phases(self):
        scenario = Scenario(
            algorithm="simple",
            n=64,
            nests=NestConfig.all_good(3),
            seed=3,
            max_rounds=20_000,
        )
        with phase_timing() as profile:
            run_batch(scenario.trials(3), backend="fast", workers=1)
        assert profile.batches == 1
        assert profile.rounds > 0
        assert profile.total_seconds > 0
        assert set(profile.phase_seconds) <= {
            "draw",
            "match",
            "move",
            "bookkeep",
            "compact",
        }
        summary = profile.as_dict()
        assert summary["rounds"] == profile.rounds
        assert abs(sum(p["share"] for p in summary["phases"].values()) - 1.0) < 1e-9

    def test_profiling_off_is_inert(self):
        from repro.fast import profiling

        assert profiling.active() is None

    def test_profiler_smoke_cli(self):
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(repo / "tools" / "profile_hotpath.py"), "--smoke"],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": str(repo / "src"),
                "PATH": "/usr/bin:/bin",
            },
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert "kernel" in proc.stdout
