"""Tests for the rumor-spreading baseline."""

import networkx as nx
import numpy as np
import pytest

from repro.api import Scenario, run_batch
from repro.baselines.rumor import (
    RumorMode,
    expected_push_rounds,
    rumor_rounds,
    spread_on_graph,
)
from repro.exceptions import ConfigurationError
from repro.model.nests import NestConfig


class TestCompleteGraph:
    @pytest.mark.parametrize(
        "mode", [RumorMode.PUSH, RumorMode.PULL, RumorMode.PUSH_PULL]
    )
    def test_completes(self, mode, rng):
        rounds = rumor_rounds(256, rng, mode)
        assert 1 <= rounds < 200

    def test_already_informed(self, rng):
        assert rumor_rounds(8, rng, initial_informed=8) == 0

    def test_push_matches_karp_estimate(self, rng):
        n = 4096
        measured = np.median([rumor_rounds(n, rng) for _ in range(10)])
        estimate = expected_push_rounds(n)
        assert abs(measured - estimate) <= 0.35 * estimate

    def test_push_pull_not_slower_than_push(self, rng):
        n = 2048
        push = np.median([rumor_rounds(n, rng, RumorMode.PUSH) for _ in range(10)])
        both = np.median(
            [rumor_rounds(n, rng, RumorMode.PUSH_PULL) for _ in range(10)]
        )
        assert both <= push

    def test_log_growth(self, rng):
        medians = [
            np.median([rumor_rounds(n, rng) for _ in range(10)])
            for n in (256, 1024, 4096)
        ]
        increments = np.diff(medians)
        assert all(0 <= inc <= 6 for inc in increments)

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            rumor_rounds(0, rng)
        with pytest.raises(ConfigurationError):
            rumor_rounds(4, rng, initial_informed=0)


class TestGraphSpread:
    def test_complete_graph_similar_to_direct(self, rng):
        graph = nx.complete_graph(256)
        rounds = spread_on_graph(graph, 0, rng)
        direct = rumor_rounds(256, rng)
        assert abs(rounds - direct) <= max(rounds, direct)  # same ballpark

    def test_path_graph_is_slow(self, rng):
        path = nx.path_graph(64)
        complete = nx.complete_graph(64)
        slow = spread_on_graph(path, 0, rng)
        fast = spread_on_graph(complete, 0, rng)
        assert slow > 2 * fast  # diameter dominates

    def test_star_graph_pull_completes(self, rng):
        star = nx.star_graph(32)
        rounds = spread_on_graph(star, 0, rng, RumorMode.PUSH_PULL)
        assert rounds >= 1

    def test_disconnected_rejected(self, rng):
        graph = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(ConfigurationError):
            spread_on_graph(graph, 0, rng)

    def test_missing_source_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            spread_on_graph(nx.complete_graph(4), 99, rng)

    def test_empty_graph_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            spread_on_graph(nx.Graph(), 0, rng)


class TestEstimate:
    def test_expected_push_rounds_small(self):
        assert expected_push_rounds(1) == 0.0
        assert expected_push_rounds(2) > 0


class TestBatchKernel:
    @pytest.mark.parametrize("mode", list(RumorMode))
    def test_batch_equals_per_trial_rounds(self, mode):
        # The registry's rumor batch kernel loops rumor_rounds over its
        # trials, each on its own stream: chunking changes nothing.
        scenario = Scenario(
            algorithm="rumor",
            n=200,
            nests=NestConfig.all_good(2),
            seed=11,
            max_rounds=40,
            params={"mode": mode.value, "initial_informed": 3},
        )
        reports = run_batch(scenario.trials(5), batch_chunk=2)
        for t, report in enumerate(reports):
            rounds = rumor_rounds(
                200,
                scenario.trial(t).source().colony,
                mode,
                initial_informed=3,
                max_rounds=scenario.max_rounds + 1,
            )
            assert report.converged == (rounds <= scenario.max_rounds)
            assert report.rounds_executed == min(rounds, scenario.max_rounds)
            assert report.extras == {"process": "rumor", "mode": mode.value}
