"""Smoke tests for every experiment runner (quick grids).

These verify each E* runner executes end-to-end, returns a populated table,
and — where the claim admits a cheap check — that the reproduction
assertion holds at quick scale.
"""

from pathlib import Path

import pytest

from repro.analysis.tables import Table
from repro.experiments import RUNNERS
from repro.experiments import (
    e01_lower_bound,
    e02_recruitment,
    e03_optimal_dropout,
    e05_simple_gap,
)


# Runners too slow for per-commit testing at quick scale are exercised with
# custom tiny grids below instead of their quick defaults.
FAST_ENOUGH = ["E1", "E2", "E3", "E5", "E6", "E7", "E4"]


@pytest.mark.parametrize("experiment_id", FAST_ENOUGH)
def test_runner_produces_table(experiment_id):
    table = RUNNERS[experiment_id](quick=True)
    assert isinstance(table, Table)
    assert table.n_rows > 0
    assert table.render()


class TestReproductionChecksAtQuickScale:
    def test_e1_lower_bound_never_beaten(self):
        table = e01_lower_bound.run(quick=True, trials=5, sizes=(128, 512))
        assert all(row[-1] == "yes" for row in table._rows)

    def test_e2_lemma_2_1_holds(self):
        table = e02_recruitment.run(quick=True, trials=300, sizes=(2, 16, 64))
        assert all(row[-1] == "yes" for row in table._rows)

    def test_e3_dropout_bound_holds(self):
        table = e03_optimal_dropout.run(
            quick=True, trials=12, configs=((512, 8),)
        )
        assert all(row[-1] == "yes" for row in table._rows)

    def test_e5_initial_gap_holds(self):
        table = e05_simple_gap.run(
            quick=True, trials=3000, configs=((256, 4), (1024, 8))
        )
        assert all(row[-1] == "yes" for row in table._rows)


class TestSlowRunnersTinyGrids:
    def test_e4b_strict_ablation(self):
        from repro.experiments import e04_optimal_scaling

        table = e04_optimal_scaling.run_strict_ablation(
            quick=True, configs=((64, 2),), trials=4
        )
        assert table.n_rows == 1

    def test_e8_comparison(self):
        from repro.experiments import e08_comparison

        table = e08_comparison.run(
            quick=True, n=64, k_values=(4,), trials=4, agent_trials=3,
            uniform_max_rounds=2000,
        )
        assert table.n_rows == 5  # five strategies

    def test_e9_adaptive(self):
        from repro.experiments import e09_adaptive

        table = e09_adaptive.run(
            quick=True, n=128, k_values=(8,), trials=4, agent_trials=2
        )
        assert table.n_rows == 4

    def test_e10_nonbinary(self):
        from repro.experiments import e10_nonbinary

        table = e10_nonbinary.run(
            quick=True, n=64, gaps=(0.4,), weights=(2.0,), trials=5
        )
        assert table.n_rows == 1

    def test_e11_noise(self):
        from repro.experiments import e11_noise

        table = e11_noise.run(
            quick=True, n=128, sigmas=(0.0, 0.5), encounter_trials=(32,),
            trials=4, agent_trials=2,
        )
        assert table.n_rows == 3

    def test_e12_faults(self):
        from repro.experiments import e12_faults

        table = e12_faults.run(
            quick=True, n=64, crash_fractions=(0.0, 0.2),
            byzantine_fractions=(), trials=3,
        )
        assert table.n_rows >= 3

    def test_e13_asynchrony(self):
        from repro.experiments import e13_asynchrony

        table = e13_asynchrony.run(quick=True, n=64, delays=(0.0, 0.2), trials=3)
        assert table.n_rows == 2

    def test_e14_polya(self):
        from repro.experiments import e14_polya

        table = e14_polya.run(quick=True, n=64, trials=30, urn_trials=30)
        assert table.n_rows == 4

    def test_e14_quick_table_matches_committed_output(self):
        # E14's 800 urn trials run batched, so the full quick study is
        # cheap enough to re-render byte for byte on every commit.
        from repro.experiments import e14_polya

        committed = (
            Path(__file__).resolve().parent.parent / "benchmarks" / "output" / "E14.txt"
        ).read_text(encoding="utf-8")
        assert e14_polya.run(quick=True).render() + "\n" == committed
