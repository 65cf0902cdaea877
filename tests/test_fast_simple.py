"""Tests for the vectorized Algorithm 3 simulator (the ``simple`` batch kernel)."""

import numpy as np
import pytest

from repro.core.colony import simple_factory
from repro.exceptions import ConfigurationError
from repro.model.nests import NestConfig
from repro.sim.noise import CountNoise
from repro.sim.run import run_trials
from tests.helpers.runs import fast_run, fast_runs


class TestBasics:
    def test_converges(self, all_good_4):
        result = fast_run("simple", 128, all_good_4, seed=0, max_rounds=4000)
        assert result.converged
        assert result.chosen_nest in (1, 2, 3, 4)
        assert result.converged_round % 2 == 0  # unanimity lands on recruit rounds

    def test_reproducible(self, all_good_4):
        a = fast_run("simple", 64, all_good_4, seed=9, max_rounds=4000)
        b = fast_run("simple", 64, all_good_4, seed=9, max_rounds=4000)
        assert a.converged_round == b.converged_round
        assert a.chosen_nest == b.chosen_nest

    def test_round_cap(self, all_good_4):
        result = fast_run("simple", 64, all_good_4, seed=0, max_rounds=4)
        assert not result.converged
        assert result.rounds_executed <= 4

    def test_avoids_bad_nests(self, mixed_nests):
        for result in fast_runs("simple", 128, mixed_nests, range(3), max_rounds=4000):
            assert result.converged
            assert result.chosen_nest in (1, 3)

    def test_final_counts_sum_to_n(self, all_good_4):
        result = fast_run("simple", 64, all_good_4, seed=1, max_rounds=4000)
        assert result.final_counts.sum() == 64

    def test_invalid_n(self, all_good_4):
        with pytest.raises(ConfigurationError):
            fast_run("simple", 0, all_good_4)


class TestHistory:
    def test_history_shape_and_sums(self, all_good_4):
        result = fast_run(
            "simple", 64, all_good_4, seed=2, max_rounds=4000, record_history=True
        )
        history = result.population_history
        assert history.shape[0] == result.rounds_executed
        assert history.shape[1] == 5
        assert (history.sum(axis=1) == 64).all()

    def test_recruit_rounds_everyone_home(self, all_good_4):
        result = fast_run(
            "simple", 64, all_good_4, seed=2, max_rounds=4000, record_history=True
        )
        history = result.population_history
        assert (history[1::2, 0] == 64).all()  # even rounds: all at home
        assert (history[0::2, 0] == 0).all()  # odd rounds: all at nests

    def test_no_history_by_default(self, all_good_4):
        result = fast_run("simple", 32, all_good_4, seed=0, max_rounds=400)
        assert result.population_history is None


class TestVariants:
    def test_rate_multiplier_speeds_up_large_k(self):
        # adaptive's rate multiplier max(1, 16 * 0.5 ** ((phase - 1) / 4)).
        nests = NestConfig.all_good(16)
        plain = [
            r.converged_round
            for r in fast_runs("simple", 512, nests, range(6), max_rounds=20_000)
        ]
        boosted = [
            r.converged_round
            for r in fast_runs(
                "adaptive",
                512,
                nests,
                range(6),
                max_rounds=20_000,
                params={"k_initial": 16, "half_life": 4},
            )
        ]
        assert np.median(boosted) < np.median(plain)

    def test_noise_preserves_correctness(self, mixed_nests):
        result = fast_run(
            "simple",
            128,
            mixed_nests,
            seed=3,
            max_rounds=8000,
            noise=CountNoise(relative_sigma=0.5),
        )
        assert result.converged
        assert result.chosen_nest in (1, 3)


class TestAgentEquivalence:
    """The two engines implement the same process: their convergence-round
    distributions must agree (medians within a generous tolerance)."""

    def test_distributional_match(self, all_good_4):
        agent = run_trials(
            simple_factory(), 96, all_good_4, n_trials=15, base_seed=7,
            max_rounds=4000,
        )
        fast = fast_runs(
            "simple", 96, all_good_4, range(1000, 1015), max_rounds=4000
        )
        fast_median = float(np.median([r.converged_round for r in fast]))
        assert agent.success_rate == 1.0
        assert all(r.converged for r in fast)
        assert abs(fast_median - agent.median_rounds) <= 0.35 * max(
            fast_median, agent.median_rounds
        )
