"""Tests for the adaptive recruitment-rate extensions (Section 6)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.extensions.adaptive import (
    AdaptiveSimpleAnt,
    PowerFeedbackAnt,
    adaptive_factory,
    ktilde_schedule,
    power_feedback_factory,
)
from repro.model.actions import SearchResult
from repro.model.nests import NestConfig
from repro.sim.run import run_trial
from tests.helpers.runs import fast_runs


class TestKtildeSchedule:
    def test_initial_value(self):
        schedule = ktilde_schedule(16, half_life=4)
        assert schedule(1) == pytest.approx(16.0)

    def test_halves_per_half_life(self):
        schedule = ktilde_schedule(16, half_life=4)
        assert schedule(5) == pytest.approx(8.0)
        assert schedule(9) == pytest.approx(4.0)

    def test_floors_at_one(self):
        schedule = ktilde_schedule(4, half_life=1)
        assert schedule(50) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ktilde_schedule(0.5, half_life=2)
        with pytest.raises(ConfigurationError):
            ktilde_schedule(4, half_life=0)


class TestAdaptiveAnt:
    def test_boosted_probability(self):
        # count/n = 1/8, multiplier 8 -> recruit with probability ~1.
        draws = []
        for seed in range(200):
            ant = AdaptiveSimpleAnt(
                0, 64, np.random.default_rng(seed), schedule=lambda phase: 8.0
            )
            ant.decide()
            ant.observe(SearchResult(nest=1, quality=1.0, count=8))
            draws.append(ant.decide().active)
        assert np.mean(draws) > 0.95

    def test_multiplier_one_matches_plain_rate(self):
        draws = []
        for seed in range(600):
            ant = AdaptiveSimpleAnt(
                0, 16, np.random.default_rng(seed), schedule=lambda phase: 1.0
            )
            ant.decide()
            ant.observe(SearchResult(nest=1, quality=1.0, count=8))
            draws.append(ant.decide().active)
        assert 0.42 < np.mean(draws) < 0.58

    def test_label(self):
        ant = AdaptiveSimpleAnt(
            0, 16, np.random.default_rng(0), schedule=lambda phase: 1.0
        )
        assert ant.state_label().startswith("adaptive-")

    def test_end_to_end(self):
        nests = NestConfig.all_good(8)
        result = run_trial(
            adaptive_factory(k_initial=8), 128, nests, seed=1, max_rounds=8000
        )
        assert result.converged

    def test_speedup_at_large_k(self):
        """The headline claim of E9, at test scale (fast engine)."""
        k = 16
        nests = NestConfig.all_good(k)
        plain = [
            r.converged_round
            for r in fast_runs("simple", 512, nests, range(8), max_rounds=20_000)
        ]
        # The adaptive entry's rate multiplier: ktilde_schedule(k, half_life=k / 4).
        adaptive = [
            r.converged_round
            for r in fast_runs(
                "adaptive",
                512,
                nests,
                range(8),
                max_rounds=20_000,
                params={"k_initial": k, "half_life": k / 4},
            )
        ]
        assert np.median(adaptive) < np.median(plain)


class TestPowerFeedbackAnt:
    def test_probability_is_power_of_share(self):
        # count/n = 1/4, beta = 0.5 -> p = 1/2.
        draws = []
        for seed in range(600):
            ant = PowerFeedbackAnt(0, 16, np.random.default_rng(seed), beta=0.5)
            ant.decide()
            ant.observe(SearchResult(nest=1, quality=1.0, count=4))
            draws.append(ant.decide().active)
        assert 0.42 < np.mean(draws) < 0.58

    def test_beta_one_is_plain_algorithm(self):
        draws = []
        for seed in range(600):
            ant = PowerFeedbackAnt(0, 16, np.random.default_rng(seed), beta=1.0)
            ant.decide()
            ant.observe(SearchResult(nest=1, quality=1.0, count=4))
            draws.append(ant.decide().active)
        assert 0.18 < np.mean(draws) < 0.33

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PowerFeedbackAnt(0, 16, np.random.default_rng(0), beta=0.0)
        with pytest.raises(ConfigurationError):
            PowerFeedbackAnt(0, 16, np.random.default_rng(0), beta=1.5)

    def test_end_to_end(self):
        nests = NestConfig.all_good(4)
        result = run_trial(
            power_feedback_factory(beta=0.5), 96, nests, seed=2, max_rounds=8000
        )
        assert result.converged
