"""Every experiment runner: quick tables byte for byte, and tiny grids.

Each record's quick table must equal its committed
``benchmarks/output/<id>.txt`` and pass the record's check; the claims
with a check are also checked on smaller override grids, and the slow
studies run on tiny ones.
"""

from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, RUNNERS

OUTPUT_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "output"


@pytest.mark.parametrize("experiment_id", list(RUNNERS))
def test_quick_table_matches_committed_output(experiment_id):
    table = RUNNERS[experiment_id](quick=True)
    committed = (OUTPUT_DIR / f"{experiment_id}.txt").read_text(encoding="utf-8")
    assert table.render() + "\n" == committed
    check = EXPERIMENTS[experiment_id].check
    assert check is None or check(table)


class TestReproductionChecksAtQuickScale:
    def test_e1_lower_bound_never_beaten(self):
        table = RUNNERS["E1"](quick=True, trials=5, sizes=(128, 512))
        assert EXPERIMENTS["E1"].check(table)

    def test_e2_lemma_2_1_holds(self):
        table = RUNNERS["E2"](quick=True, trials=300, sizes=(2, 16, 64))
        assert EXPERIMENTS["E2"].check(table)

    def test_e3_dropout_bound_holds(self):
        table = RUNNERS["E3"](quick=True, trials=12, configs=((512, 8),))
        assert EXPERIMENTS["E3"].check(table)

    def test_e5_initial_gap_holds(self):
        table = RUNNERS["E5"](quick=True, trials=3000, configs=((256, 4), (1024, 8)))
        assert EXPERIMENTS["E5"].check(table)


class TestSlowRunnersTinyGrids:
    def test_e4b_strict_ablation(self):
        table = RUNNERS["E4b"](quick=True, configs=((64, 2),), trials=4)
        assert table.n_rows == 1

    def test_e8_comparison(self):
        table = RUNNERS["E8"](
            quick=True, n=64, k_values=(4,), trials=4, agent_trials=3,
            uniform_max_rounds=2000,
        )
        assert table.n_rows == 5  # five strategies
        # The renderer reads n and the round cap from the cells that ran.
        assert table.title.startswith("E8  Strategy comparison at n=64:")
        assert "round cap (2000)" in table.render()

    def test_e9_adaptive(self):
        table = RUNNERS["E9"](quick=True, n=128, k_values=(8,), trials=4, agent_trials=2)
        assert table.n_rows == 4
        assert table.title == "E9  Adaptive recruitment rates at n=128"

    def test_e10_nonbinary(self):
        table = RUNNERS["E10"](quick=True, n=64, gaps=(0.4,), weights=(2.0,), trials=5)
        assert table.n_rows == 1
        assert table.title.startswith("E10  Non-binary qualities at n=64, k=2:")

    def test_e11_noise(self):
        table = RUNNERS["E11"](
            quick=True, n=128, sigmas=(0.0, 0.5), encounter_trials=(32,), trials=4
        )
        assert table.n_rows == 3
        assert table.title == "E11  Noisy counting at n=128, k=4 (Algorithm 3)"

    def test_e12_faults(self):
        table = RUNNERS["E12"](
            quick=True, n=64, crash_fractions=(0.0, 0.2),
            byzantine_fractions=(), trials=3,
        )
        assert table.n_rows >= 3
        assert table.title.startswith("E12  Fault tolerance at n=64, k=4 ")

    def test_e13_asynchrony(self):
        table = RUNNERS["E13"](quick=True, n=64, delays=(0.0, 0.2), trials=3)
        assert table.n_rows == 2
        assert table.title == "E13  Partial asynchrony at n=64, k=4 (Algorithm 3)"

    def test_e14_polya(self):
        table = RUNNERS["E14"](quick=True, n=64, trials=30, urn_trials=30)
        assert table.n_rows == 4
        assert table.title.startswith("E14  Polya-urn analogy at n=64, k=2:")
