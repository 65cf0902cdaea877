"""Tests for the vectorized lower-bound spread simulator (the ``spread`` batch kernel)."""

import numpy as np
import pytest

from repro.core.lower_bound import IgnorantPolicy
from repro.exceptions import ConfigurationError
from repro.model.nests import NestConfig
from tests.helpers.runs import fast_run, fast_runs


def spread(n, k, policy=IgnorantPolicy.WAIT, seed=0, max_rounds=100_000):
    """One fast run of the spread process (the good nest is nest 1)."""
    return fast_run(
        "spread",
        n,
        NestConfig.single_good(k, good_nest=1),
        seed=seed,
        max_rounds=max_rounds,
        params={"policy": policy.value},
    )


def spreads(n, k, policy, seeds, max_rounds=100_000):
    """One fast run of the spread process per seed, as one batch."""
    return fast_runs(
        "spread",
        n,
        NestConfig.single_good(k, good_nest=1),
        seeds,
        max_rounds=max_rounds,
        params={"policy": policy.value},
    )


def informed_history(report) -> np.ndarray:
    return np.asarray(report.extras["informed_history"])


class TestBasics:
    @pytest.mark.parametrize(
        "policy", [IgnorantPolicy.WAIT, IgnorantPolicy.SEARCH, IgnorantPolicy.MIXED]
    )
    def test_completes(self, policy):
        result = spread(128, 8, policy, seed=0, max_rounds=5000)
        assert result.converged
        assert result.converged_round is not None

    def test_reproducible(self):
        a = spread(128, 8, seed=4)
        b = spread(128, 8, seed=4)
        assert a.converged_round == b.converged_round

    def test_informed_history_monotone(self):
        history = informed_history(spread(256, 8, seed=1))
        assert (np.diff(history) >= 0).all()
        assert history[-1] == 256

    def test_completion_round_matches_history(self):
        result = spread(128, 4, seed=2)
        history = informed_history(result)
        first_full = int(np.argmax(history == 128)) + 1  # rounds are 1-based
        assert result.converged_round == first_full

    def test_round_cap(self):
        result = spread(4096, 64, IgnorantPolicy.SEARCH, seed=0, max_rounds=3)
        assert not result.converged
        assert result.rounds_to_convergence == result.rounds_executed

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            spread(0, 4)
        with pytest.raises(ConfigurationError):
            spread(16, 1)


class TestGrowthShape:
    def test_wait_policy_grows_logarithmically(self):
        """Doubling n should add roughly a constant number of rounds."""
        medians = []
        for n in (256, 1024, 4096):
            rounds = [
                r.converged_round
                for r in spreads(n, 8, IgnorantPolicy.WAIT, range(10))
            ]
            medians.append(float(np.median(rounds)))
        increments = np.diff(medians)
        # log growth: small, roughly equal increments (x4 size steps).
        assert all(0 <= inc <= 10 for inc in increments)

    def test_search_policy_slower_than_wait_at_scale(self):
        wait = np.median(
            [r.rounds_to_convergence
             for r in spreads(2048, 16, IgnorantPolicy.WAIT, range(5))]
        )
        search = np.median(
            [r.rounds_to_convergence
             for r in spreads(2048, 16, IgnorantPolicy.SEARCH, range(5))]
        )
        # Pure searching is coupon-collector-like (k log n expected per ant
        # is 1/k per round); recruitment doubles -- far faster.
        assert wait < search
