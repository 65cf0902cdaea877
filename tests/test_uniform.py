"""Tests for the uniform-recruitment ablation."""

import numpy as np
import pytest

from repro.baselines.uniform import UniformRecruitAnt, uniform_factory
from repro.exceptions import ConfigurationError
from repro.model.actions import SearchResult
from repro.model.nests import NestConfig
from repro.sim.run import run_trial, run_trials
from tests.helpers.runs import fast_runs


class TestAnt:
    def test_constant_recruit_rate(self):
        draws = []
        for seed in range(400):
            ant = UniformRecruitAnt(
                0, 100, np.random.default_rng(seed), recruit_probability=0.3
            )
            ant.decide()
            # Tiny nest: Algorithm 3 would recruit w.p. 1/100; the ablation
            # ignores the population entirely.
            ant.observe(SearchResult(nest=1, quality=1.0, count=1))
            draws.append(ant.decide().active)
        assert 0.22 < np.mean(draws) < 0.38

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UniformRecruitAnt(
                0, 8, np.random.default_rng(0), recruit_probability=1.5
            )

    def test_label(self):
        ant = UniformRecruitAnt(0, 8, np.random.default_rng(0))
        assert ant.state_label().startswith("uniform-")


class TestDynamics:
    def test_converges_eventually_small_world(self):
        nests = NestConfig.all_good(2)
        result = run_trial(
            uniform_factory(), 32, nests, seed=1, max_rounds=20_000
        )
        assert result.converged

    def test_positive_feedback_is_load_bearing(self):
        """The ablation's whole point: removing proportional recruitment
        slows convergence by an order of magnitude."""
        nests = NestConfig.all_good(4)
        ablation = run_trials(
            uniform_factory(), 64, nests, n_trials=5, base_seed=3,
            max_rounds=20_000,
        )
        simple_rounds = [
            r.converged_round
            for r in fast_runs("simple", 64, nests, range(5), max_rounds=20_000)
        ]
        assert ablation.median_rounds > 3 * np.median(simple_rounds)
