"""End-to-end integration tests across algorithms, engines and workloads."""

import numpy as np
import pytest

from repro.core.colony import optimal_factory, simple_factory
from repro.model.nests import NestConfig
from repro.sim.convergence import CommittedToSingleGoodNest
from repro.sim.run import run_trial
from tests.helpers.runs import fast_run, fast_runs


WORKLOADS = [
    ("all-good small", 32, NestConfig.all_good(2)),
    ("all-good wide", 64, NestConfig.all_good(8)),
    ("one-good-of-4", 96, NestConfig.single_good(4, good_nest=2)),
    ("mixed", 64, NestConfig.binary(6, {1, 4, 5})),
]


class TestSimpleAcrossWorkloads:
    @pytest.mark.parametrize("name,n,nests", WORKLOADS, ids=[w[0] for w in WORKLOADS])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_agent_engine(self, name, n, nests, seed):
        result = run_trial(simple_factory(), n, nests, seed=seed, max_rounds=20_000)
        assert result.converged
        assert nests.is_good(result.chosen_nest)

    @pytest.mark.parametrize("name,n,nests", WORKLOADS, ids=[w[0] for w in WORKLOADS])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fast_engine(self, name, n, nests, seed):
        result = fast_run("simple", n, nests, seed=seed, max_rounds=20_000)
        assert result.converged
        assert nests.is_good(result.chosen_nest)


class TestOptimalAcrossWorkloads:
    @pytest.mark.parametrize("name,n,nests", WORKLOADS, ids=[w[0] for w in WORKLOADS])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_agent_engine(self, name, n, nests, seed):
        result = run_trial(
            optimal_factory(),
            n,
            nests,
            seed=seed,
            max_rounds=20_000,
            criterion_factory=lambda: CommittedToSingleGoodNest(require_settled=True),
        )
        assert result.converged
        assert nests.is_good(result.chosen_nest)

    @pytest.mark.parametrize("name,n,nests", WORKLOADS, ids=[w[0] for w in WORKLOADS])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fast_engine(self, name, n, nests, seed):
        result = fast_run("optimal", n, nests, seed=seed, max_rounds=20_000)
        assert result.converged
        assert nests.is_good(result.chosen_nest)


class TestPaperHeadlineShapes:
    """The paper's two headline comparisons, at test scale."""

    def test_optimal_beats_simple_at_large_k(self):
        """Theorem 4.3 vs 5.11: at large k, O(log n) beats O(k log n)."""
        nests = NestConfig.all_good(24)
        optimal = [
            r.converged_round
            for r in fast_runs("optimal", 1024, nests, range(6), max_rounds=50_000)
        ]
        simple = [
            r.converged_round
            for r in fast_runs("simple", 1024, nests, range(6), max_rounds=50_000)
        ]
        assert np.median(optimal) < np.median(simple)

    def test_simple_rounds_grow_with_k(self):
        """Theorem 5.11's O(k log n): k=32 takes longer than k=2."""
        small_k = [
            r.converged_round
            for r in fast_runs(
                "simple", 512, NestConfig.all_good(2), range(6), max_rounds=50_000
            )
        ]
        large_k = [
            r.converged_round
            for r in fast_runs(
                "simple", 512, NestConfig.all_good(32), range(6), max_rounds=50_000
            )
        ]
        assert np.median(large_k) > np.median(small_k)

    def test_optimal_rounds_barely_grow_with_k(self):
        """Theorem 4.3: k enters only through O(log k)."""
        small_k = np.median(
            [
                r.converged_round
                for r in fast_runs(
                    "optimal", 1024, NestConfig.all_good(2), range(6),
                    max_rounds=50_000,
                )
            ]
        )
        large_k = np.median(
            [
                r.converged_round
                for r in fast_runs(
                    "optimal", 1024, NestConfig.all_good(32), range(6),
                    max_rounds=50_000,
                )
            ]
        )
        assert large_k <= 2.5 * small_k


class TestDegenerateCases:
    def test_one_ant_one_nest_simple(self):
        result = fast_run("simple", 1, NestConfig.all_good(1), seed=0, max_rounds=100)
        assert result.converged

    def test_two_ants_two_nests_both_engines(self):
        nests = NestConfig.all_good(2)
        fast = fast_run("simple", 2, nests, seed=3, max_rounds=4000)
        agent = run_trial(simple_factory(), 2, nests, seed=3, max_rounds=4000)
        assert fast.converged and agent.converged

    def test_all_bad_search_never_converges_plain(self):
        """With one good nest among many and very few ants, plain Algorithm
        3 can deadlock (nobody searches twice) — the documented limitation
        the retrying extension fixes."""
        nests = NestConfig.binary(16, {16})
        outcomes = [
            r.converged
            for r in fast_runs("simple", 4, nests, range(12), max_rounds=300)
        ]
        assert not all(outcomes)
