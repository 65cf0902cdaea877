"""Tests for the mean-field dynamics of Algorithm 3 (Lemma 5.3)."""

import numpy as np
import pytest

from repro.analysis.dynamics import (
    dominance_steps,
    fit_xi,
    mean_field_step,
    predicted_winner,
    simple_mean_field,
)
from repro.exceptions import ConfigurationError
from repro.model.nests import NestConfig
from tests.helpers.runs import fast_run, fast_runs


class TestMap:
    def test_stays_on_simplex(self):
        trajectory = simple_mean_field([0.3, 0.3, 0.4], steps=200, xi=0.8)
        assert np.allclose(trajectory.sum(axis=1), 1.0)
        assert (trajectory >= 0).all()

    def test_leader_share_monotone(self):
        trajectory = simple_mean_field([0.26, 0.25, 0.25, 0.24], steps=300)
        leader = trajectory[:, 0]
        assert (np.diff(leader) >= -1e-12).all()
        assert leader[-1] > 0.99

    def test_exact_tie_is_fixed_point(self):
        state = np.array([0.5, 0.5])
        assert np.allclose(mean_field_step(state, xi=0.8), state)

    def test_uniform_k_way_tie_is_fixed_point(self):
        state = np.full(5, 0.2)
        assert np.allclose(mean_field_step(state, xi=0.5), state)

    def test_winner_is_initial_leader(self):
        assert predicted_winner([0.2, 0.5, 0.3]) == 2

    def test_trajectory_shape_and_normalization(self):
        trajectory = simple_mean_field([2.0, 1.0, 1.0], steps=10)
        assert trajectory.shape == (11, 3)
        assert trajectory[0].tolist() == [0.5, 0.25, 0.25]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            simple_mean_field([0.5, 0.5], steps=-1)
        with pytest.raises(ConfigurationError):
            simple_mean_field([0.5, 0.5], steps=1, xi=0.0)
        with pytest.raises(ConfigurationError):
            simple_mean_field([0.0, 0.0], steps=1)


class TestDominanceSteps:
    def test_bigger_gap_dominates_faster(self):
        close = dominance_steps([0.51, 0.49])
        wide = dominance_steps([0.7, 0.3])
        assert wide < close

    def test_more_nests_take_longer(self):
        # 1/k initial shares with a small leader bump: the k factor of
        # Theorem 5.11 appears directly in the mean-field map.
        def bumped(k):
            shares = np.full(k, 1.0 / k)
            shares[0] *= 1.1
            return dominance_steps(shares / shares.sum())

        assert bumped(16) > bumped(4) > bumped(2)

    def test_exact_tie_raises(self):
        with pytest.raises(ConfigurationError):
            dominance_steps([0.5, 0.5], max_steps=100)

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            dominance_steps([0.6, 0.4], threshold=1.0)


class TestFitXi:
    def test_recovers_xi_from_synthetic_map_data(self):
        # Build a fake history whose assessment rows follow the map exactly.
        xi_true = 0.6
        n = 10_000
        shares = np.array([0.4, 0.35, 0.25])
        rows = []
        for _ in range(30):
            counts = np.concatenate([[0], np.round(shares * n)]).astype(int)
            rows.append(counts)
            rows.append(np.array([n, 0, 0, 0]))  # recruit round: all home
            shares = mean_field_step(shares, xi_true)
        history = np.vstack(rows)
        assert fit_xi(history) == pytest.approx(xi_true, abs=0.08)

    def test_fits_real_simulation_to_plausible_range(self):
        result = fast_run(
            "simple", 4096, NestConfig.all_good(4), seed=5, max_rounds=20_000,
            record_history=True,
        )
        xi = fit_xi(result.population_history)
        # The effective efficiency folds in matcher collisions; it must be
        # a substantial positive constant below 1.
        assert 0.15 < xi <= 1.2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fit_xi(None)
        with pytest.raises(ConfigurationError):
            fit_xi(np.zeros((2, 3)))


class TestMeanFieldVsSimulation:
    def test_dominance_time_same_ballpark(self):
        """Mean-field cycles (x2 rounds) should track measured rounds within
        a small constant factor at moderate size."""
        n, k = 4096, 8
        nests = NestConfig.all_good(k)
        measured = []
        initials = []
        for result in fast_runs(
            "simple", n, nests, range(5), max_rounds=20_000, record_history=True
        ):
            measured.append(result.converged_round)
            initials.append(result.population_history[0][1:] / n)
        xi = 0.5
        predicted = np.median(
            [2 * dominance_steps(init, xi=xi) for init in initials]
        )
        ratio = np.median(measured) / max(predicted, 1)
        assert 0.2 < ratio < 5.0
