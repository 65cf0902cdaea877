"""Tests for the vectorized Algorithm 2 simulator (the ``optimal`` batch kernel)."""

import numpy as np
import pytest

from repro.core.colony import optimal_factory
from repro.exceptions import ConfigurationError
from repro.model.nests import NestConfig
from repro.sim.convergence import CommittedToSingleGoodNest
from repro.sim.run import run_trials
from tests.helpers.runs import fast_run, fast_runs


class TestBasics:
    def test_converges(self, all_good_4):
        result = fast_run("optimal", 128, all_good_4, seed=0, max_rounds=8000)
        assert result.converged
        assert result.chosen_nest in (1, 2, 3, 4)

    def test_reproducible(self, all_good_4):
        a = fast_run("optimal", 64, all_good_4, seed=9, max_rounds=8000)
        b = fast_run("optimal", 64, all_good_4, seed=9, max_rounds=8000)
        assert a.converged_round == b.converged_round
        assert a.chosen_nest == b.chosen_nest

    def test_avoids_bad_nests(self, mixed_nests):
        for result in fast_runs(
            "optimal", 128, mixed_nests, range(3), max_rounds=8000
        ):
            assert result.converged
            assert result.chosen_nest in (1, 3)

    def test_single_ant_settles_in_one_block(self):
        nests = NestConfig.all_good(1)
        result = fast_run("optimal", 1, nests, seed=0, max_rounds=100)
        assert result.converged
        assert result.converged_round == 5

    def test_round_cap(self, all_good_4):
        result = fast_run("optimal", 64, all_good_4, seed=0, max_rounds=4)
        assert not result.converged

    def test_invalid_n(self, all_good_4):
        with pytest.raises(ConfigurationError):
            fast_run("optimal", 0, all_good_4)


class TestHistory:
    def test_row_sums_follow_locations(self, all_good_4):
        result = fast_run(
            "optimal", 64, all_good_4, seed=1, max_rounds=8000, record_history=True
        )
        history = result.population_history
        # Row 0 is the search round: everyone at a candidate nest.
        assert history[0, 0] == 0
        assert history[0].sum() == 64
        # Every row distributes exactly n ants.
        assert (history.sum(axis=1) == 64).all()

    def test_b2_rows_hold_only_active_cohorts(self, mixed_nests):
        result = fast_run(
            "optimal", 128, mixed_nests, seed=2, max_rounds=8000, record_history=True
        )
        history = result.population_history
        # Sub-round B2 rows are indices 2, 6, 10, ...; passive ants (bad
        # nests 2 and 4) are at home then, so bad nests must be empty.
        for row in range(2, len(history), 4):
            assert history[row][2] == 0
            assert history[row][4] == 0


class TestStrictMode:
    def test_strict_mode_is_worse(self, all_good_4):
        clarified = fast_runs("optimal", 128, all_good_4, range(8), max_rounds=2000)
        strict = fast_runs(
            "optimal",
            128,
            all_good_4,
            range(8),
            max_rounds=2000,
            params={"strict_pseudocode": True},
        )
        assert sum(r.converged for r in clarified) > sum(r.converged for r in strict)


class TestAgentEquivalence:
    def test_distributional_match(self, all_good_4):
        agent = run_trials(
            optimal_factory(),
            96,
            all_good_4,
            n_trials=15,
            base_seed=7,
            max_rounds=8000,
            criterion_factory=lambda: CommittedToSingleGoodNest(require_settled=True),
        )
        fast = fast_runs(
            "optimal", 96, all_good_4, range(2000, 2015), max_rounds=8000
        )
        fast_median = float(np.median([r.converged_round for r in fast]))
        assert agent.success_rate == 1.0
        assert all(r.converged for r in fast)
        assert abs(fast_median - agent.median_rounds) <= 0.35 * max(
            fast_median, agent.median_rounds
        )
