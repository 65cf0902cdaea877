"""Tests for the Pólya-urn reference process and its batch kernel."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.api import Scenario, run_batch
from repro.api.sweep import expand_study
from repro.baselines.polya import (
    DRAW_BLOCK,
    PolyaUrn,
    polya_batch,
    urn_win_probability,
)
from repro.exceptions import ConfigurationError
from repro.experiments import e14_polya
from repro.model.nests import NestConfig
from repro.sim.rng import RandomSource
from tests.helpers.equivalence import assert_reports_bit_identical
from tests.helpers.urn_oracle import urn_a_wins_exactly

E14_TXT = Path(__file__).resolve().parent.parent / "benchmarks" / "output" / "E14.txt"


class TestUrn:
    def test_step_adds_one_ball(self, rng):
        urn = PolyaUrn([3, 3])
        chosen = urn.step(rng)
        assert urn.total == 7
        assert chosen in (0, 1)

    def test_run_trajectory_shape(self, rng):
        urn = PolyaUrn([2, 2, 2], gamma=1.0)
        trajectory = urn.run(50, rng)
        assert trajectory.shape == (51, 3)
        assert np.allclose(trajectory.sum(axis=1), 1.0)

    def test_shares(self):
        urn = PolyaUrn([1, 3])
        assert urn.shares().tolist() == [0.25, 0.75]

    def test_empty_urn_never_reinforced(self, rng):
        urn = PolyaUrn([0, 5], gamma=2.0)
        for _ in range(20):
            urn.step(rng)
        assert urn.counts[0] == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PolyaUrn([5])
        with pytest.raises(ConfigurationError):
            PolyaUrn([0, 0])
        with pytest.raises(ConfigurationError):
            PolyaUrn([-1, 2])
        with pytest.raises(ConfigurationError):
            PolyaUrn([1, 1], gamma=0.0)

    def test_fractional_counts_rejected(self):
        # Used to be truncated to [30, 20].
        with pytest.raises(ConfigurationError, match="whole numbers"):
            PolyaUrn([30.9, 20.2])

    def test_whole_float_counts_accepted(self):
        assert PolyaUrn([30.0, 20.0]).counts.tolist() == [30, 20]

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ConfigurationError, match="gamma"):
            PolyaUrn([1, 1], gamma=gamma)


class TestDominance:
    def test_superlinear_locks_in(self, rng):
        p = urn_win_probability(30, 10, steps=400, trials=60, rng=rng, gamma=2.0)
        assert p > 0.95

    def test_gamma2_sharper_than_gamma1(self, rng):
        p2 = urn_win_probability(22, 18, steps=400, trials=150, rng=rng, gamma=2.0)
        p1 = urn_win_probability(22, 18, steps=400, trials=150, rng=rng, gamma=1.0)
        assert p2 > p1

    def test_even_start_is_fair(self, rng):
        p = urn_win_probability(10, 10, steps=200, trials=200, rng=rng, gamma=2.0)
        assert 0.35 < p < 0.65

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            urn_win_probability(1, 1, steps=10, trials=0, rng=rng)


def _step_loop(initial, gamma, steps, rng):
    """The per-trial spec: final counts and the count after every step."""
    urn = PolyaUrn(initial, gamma=gamma)
    rows = [urn.counts.copy()]
    for _ in range(steps):
        urn.step(rng)
        rows.append(urn.counts.copy())
    return urn.counts, np.array(rows)


def _urn_scenario(k, gamma, steps, record_history=False, seed=31):
    initial = [5 + (3 * urn) % 7 for urn in range(k)]
    if k > 2:
        initial[1] = 0  # an empty urn is never reinforced
    return Scenario(
        algorithm="polya",
        n=sum(initial),
        nests=NestConfig.all_good(k),
        seed=seed,
        max_rounds=steps,
        params={"initial": initial, "gamma": gamma, "steps": steps},
        record_history=record_history,
    )


class TestBatchKernel:
    """``polya_batch`` (the registry's batch kernel) against the spec."""

    @pytest.mark.parametrize("record_history", [False, True])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_batch_equals_step_loop(self, k, gamma, record_history):
        steps = DRAW_BLOCK + 300  # crosses a draw-block boundary
        scenario = _urn_scenario(k, gamma, steps, record_history)
        reports = run_batch(scenario.trials(3))
        for t, report in enumerate(reports):
            counts, rows = _step_loop(
                scenario.params["initial"],
                gamma,
                steps,
                scenario.trial(t).source().colony,
            )
            assert report.final_counts.tolist() == [0] + counts.tolist()
            assert report.chosen_nest == int(np.argmax(counts)) + 1
            assert report.converged_round == report.rounds_executed == steps
            if record_history:
                history = report.population_history
                assert history.shape == (steps + 1, k + 1)
                assert not history[:, 0].any()
                assert np.array_equal(history[:, 1:], rows)
            else:
                assert report.population_history is None

    @pytest.mark.parametrize("batch_chunk", [1, 7, None])
    def test_chunking_never_changes_reports(self, batch_chunk):
        scenario = _urn_scenario(3, 1.5, 300, record_history=True)
        reference = [run_batch([s])[0] for s in scenario.trials(15)]
        chunked = run_batch(scenario.trials(15), batch_chunk=batch_chunk)
        assert_reports_bit_identical(chunked, reference, label=f"chunk={batch_chunk}")

    def test_zero_steps_returns_the_initial_urn(self):
        counts, history = polya_batch(
            [3, 4], 2.0, 0, [np.random.default_rng(0)], record_history=True
        )
        assert counts.tolist() == [[3, 4]]
        assert history.tolist() == [[[3, 4]]]

    def test_draw_blocks_bound_the_scratch(self):
        # Uniforms are drawn DRAW_BLOCK steps at a time, so a run 8 blocks
        # long peaks well under its unblocked uniforms' size.
        trials, steps = 64, 8 * DRAW_BLOCK
        rngs = [RandomSource(2).trial(t).colony for t in range(trials)]
        tracemalloc.start()
        try:
            polya_batch([5, 5], 2.0, steps, rngs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < trials * steps * 8 / 4


def _e14_urn_cells():
    """(bin index, gamma, a, b, steps, trials, seed) per quick E14 urn cell."""
    cells = []
    for cell in expand_study(e14_polya.study(quick=True)):
        scenario = cell.scenario
        if scenario.algorithm != "polya":
            continue
        a, b = scenario.params["initial"]
        cells.append(
            (
                cell.bindings["bin_index"],
                scenario.params["gamma"],
                a,
                b,
                scenario.params["steps"],
                cell.trials,
                scenario,
            )
        )
    return cells


def _committed_e14_urn_rates() -> dict[tuple[int, float], float]:
    """(bin index, gamma) -> the urn win rate committed in E14.txt."""
    lines = [line for line in E14_TXT.read_text().splitlines() if "|" in line]
    header = [cell.strip() for cell in lines[0].split("|")]
    columns = {header.index("urn gamma=2"): 2.0, header.index("urn gamma=1"): 1.0}
    rates = {}
    for bin_index, line in enumerate(lines[1:]):
        cells = [cell.strip() for cell in line.split("|")]
        for column, gamma in columns.items():
            rates[bin_index, gamma] = float(cells[column])
    return rates


class TestExactLaw:
    """The two-urn race against its exact law (``tests/helpers/urn_oracle``)."""

    def test_oracle_known_values(self):
        # n = 128, 512 steps: E14's quick share-bin midpoints.
        expected = {
            (65, 63): (0.6188, 0.5708),
            (68, 60): (0.8903, 0.7803),
            (74, 54): (0.9990, 0.9753),
            (86, 42): (1.0000, 1.0000),
        }
        for (a, b), values in expected.items():
            for gamma, value in zip((2.0, 1.0), values):
                assert round(urn_a_wins_exactly(a, b, 512, gamma), 4) == value

    def test_oracle_small_case_by_hand(self):
        # [1, 1], gamma 1, two steps: A ends strictly larger only after
        # A, A (1/2 * 2/3) -> 1/3.
        assert urn_a_wins_exactly(1, 1, 2, 1.0) == pytest.approx(1 / 3)

    def test_committed_e14_urn_rates_match_the_exact_law(self):
        rates = _committed_e14_urn_rates()
        cells = _e14_urn_cells()
        assert len(cells) == len(rates) == 8
        for bin_index, gamma, a, b, steps, trials, _ in cells:
            exact = urn_a_wins_exactly(a, b, steps, gamma)
            committed = rates[bin_index, gamma]
            if round(exact, 4) == 1.0:
                assert committed == 1.0, (bin_index, gamma)
                continue
            z = (committed - exact) / math.sqrt(exact * (1 - exact) / trials)
            assert abs(z) <= 2, (bin_index, gamma, committed, exact)

    def test_batch_kernel_matches_the_exact_law(self):
        trials = 2000
        for bin_index, gamma, a, b, steps, _, scenario in _e14_urn_cells():
            rngs = [s.source().colony for s in scenario.trials(trials)]
            counts, _ = polya_batch([a, b], gamma, steps, rngs)
            rate = float(np.mean(counts[:, 0] > counts[:, 1]))
            exact = urn_a_wins_exactly(a, b, steps, gamma)
            z = (rate - exact) / math.sqrt(exact * (1 - exact) / trials)
            assert abs(z) <= 4, (bin_index, gamma, rate, exact)
