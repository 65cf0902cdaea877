"""The trial-parallel batch engine and its run_batch dispatch.

The load-bearing guarantees, each pinned here:

- **Bitwise reproducibility**: ``run_batch`` returns identical reports for
  any ``batch_chunk`` and any ``workers`` value, and each batched trial is
  identical to running that trial alone through ``run(backend="fast")`` —
  batching is an execution detail, never a semantics change.
- **Dispatch**: homogeneous fast-path sweeps go to the batch kernel;
  heterogeneous scenarios and agent-only features fall back per scenario,
  all folding into the same report list.  Every registry entry has at
  most one fast entry point.
- **Statistical equivalence**: the agent engine (the literal v1 matcher:
  a sequential permutation scan) and the batch kernels (the v2 schedule)
  produce convergence-round distributions and success rates that agree
  within tolerance for ``simple``, ``optimal``, and ``spread``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import REGISTRY, Scenario, run, run_batch, run_stats
from repro.exceptions import ConfigurationError
from repro.model.nests import NestConfig
from tests.helpers.equivalence import (
    assert_batteries_equivalent,
    assert_medians_close,
    assert_reports_bit_identical,
    collect_battery,
    reports_bit_identical,
)


#: Workload nests per batched algorithm (the spread process hard-codes the
#: good nest as nest 1); unlisted algorithms run on four good nests.
_BATCH_NESTS = {
    "optimal": NestConfig.all_good(3),
    "spread": NestConfig.single_good(4, good_nest=1),
    "quorum": NestConfig.binary(4, {1, 3}),
    "uniform": NestConfig.binary(4, {1, 3}),
}

#: Every registry entry with a batch kernel, including any added later.
BATCHED_ALGORITHMS = [
    (entry.name, _BATCH_NESTS.get(entry.name, NestConfig.all_good(4)))
    for entry in REGISTRY
    if entry.has_batch
]

#: The algorithms that used to accept the retired ``matcher`` param.
_FORMER_MATCHER_ALGORITHMS = (
    "simple", "optimal", "spread", "quorum", "uniform", "adaptive"
)


class TestBitwiseReproducibility:
    @pytest.mark.parametrize("algorithm,nests", BATCHED_ALGORITHMS)
    def test_batched_equals_single_trial_v2(self, algorithm, nests):
        scenario = Scenario(
            algorithm=algorithm, n=40, nests=nests, seed=9, max_rounds=6000
        )
        batched = run_batch(scenario.trials(6), workers=1)
        singles = [run(scenario.trial(t), backend="fast") for t in range(6)]
        assert_reports_bit_identical(batched, singles, label=algorithm)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 64])
    def test_chunk_size_never_changes_results(self, chunk):
        scenario = Scenario(
            algorithm="simple",
            n=48,
            nests=NestConfig.all_good(4),
            seed=5,
            max_rounds=6000,
        )
        reference = run_batch(scenario.trials(7), workers=1, batch_chunk=7)
        chunked = run_batch(scenario.trials(7), workers=1, batch_chunk=chunk)
        assert_reports_bit_identical(chunked, reference, label=f"chunk={chunk}")

    def test_workers_never_change_results(self):
        scenario = Scenario(
            algorithm="simple",
            n=48,
            nests=NestConfig.all_good(4),
            seed=5,
            max_rounds=6000,
        )
        serial = run_batch(scenario.trials(8), workers=1, batch_chunk=3)
        parallel = run_batch(scenario.trials(8), workers=4, batch_chunk=3)
        assert_reports_bit_identical(parallel, serial, label="workers")

    def test_mixed_seeds_and_trial_indices_group_together(self):
        # A homogeneous group is "same everything but randomness": mixing
        # base seeds and trial indices must still match the singles.
        base = Scenario(
            algorithm="simple", n=40, nests=NestConfig.all_good(4), max_rounds=6000
        )
        scenarios = [
            base.replace(seed=1, trial_index=None),
            base.replace(seed=2, trial_index=4),
            base.replace(seed=1, trial_index=0),
            base.replace(seed=3, trial_index=None),
        ]
        batched = run_batch(scenarios, workers=1)
        singles = [run(s, backend="fast") for s in scenarios]
        assert_reports_bit_identical(batched, singles, label="mixed seeds")

    def test_batched_history_matches_single(self):
        scenario = Scenario(
            algorithm="simple",
            n=24,
            nests=NestConfig.all_good(2),
            seed=4,
            max_rounds=2000,
            record_history=True,
        )
        batched = run_batch(scenario.trials(3), workers=1)
        singles = [run(scenario.trial(t), backend="fast") for t in range(3)]
        for got, expect in zip(batched, singles):
            assert got.population_history is not None
            assert np.array_equal(got.population_history, expect.population_history)
            assert got.population_history.shape[0] == got.rounds_executed


class TestDispatch:
    def test_registry_batch_kernels_present(self):
        batched = {name for name, _ in BATCHED_ALGORITHMS}
        assert set(_FORMER_MATCHER_ALGORITHMS) <= batched
        assert {"tagged_recruitment", "initial_split"} <= batched
        for name in ("rumor", "polya", "power_feedback"):
            assert not REGISTRY.get(name).has_batch, name

    def test_one_fast_entry_point_per_entry(self):
        for entry in REGISTRY:
            assert entry.fast_kernel is None or entry.batch_kernel is None, (
                entry.name
            )
            assert entry.has_fast == (
                entry.fast_kernel is not None or entry.batch_kernel is not None
            )

    def test_registering_both_fast_entry_points_rejected(self):
        from repro.api.registry import AlgorithmRegistry

        simple = REGISTRY.get("simple")
        registry = AlgorithmRegistry()
        with pytest.raises(ConfigurationError, match="one fast entry point"):
            registry.register(
                "both",
                "registers a per-trial and a batch kernel",
                fast_kernel=lambda scenario, source: None,
                batch_kernel=simple.batch_kernel,
            )

    def test_quorum_and_uniform_resolve_fast_on_auto(self):
        # The E8 comparison workload no longer falls back to the slow engine.
        from repro.api import resolve_backend

        nests = NestConfig.all_good(4)
        for name in ("quorum", "uniform"):
            scenario = Scenario(algorithm=name, n=32, nests=nests)
            assert resolve_backend(scenario) == "fast", name

    def test_heterogeneous_batches_fold_into_one_ordered_list(self):
        nests = NestConfig.all_good(4)
        scenarios = [
            Scenario(algorithm="simple", n=32, nests=nests, seed=1, trial_index=0),
            Scenario(algorithm="rumor", n=64, nests=nests, seed=2),
            Scenario(algorithm="simple", n=32, nests=nests, seed=1, trial_index=1),
            Scenario(algorithm="optimal", n=24, nests=nests, seed=3, max_rounds=4000),
            Scenario(algorithm="simple", n=48, nests=nests, seed=1, trial_index=0),
        ]
        reports = run_batch(scenarios, workers=1)
        singles = [run(s) for s in scenarios]
        assert [r.algorithm for r in reports] == [s.algorithm for s in scenarios]
        assert [r.n for r in reports] == [s.n for s in scenarios]
        for got, expect in zip(reports, singles):
            assert got.converged_round == expect.converged_round

    @pytest.mark.parametrize("backend", ["auto", "fast", "agent"])
    @pytest.mark.parametrize("algorithm", _FORMER_MATCHER_ALGORITHMS)
    def test_matcher_param_rejected(self, algorithm, backend):
        # The fast engine runs only the v2 schedule and the agent engine
        # only v1, so a matcher param is an unknown param everywhere.
        for matcher in ("v1", "v2", "v3"):
            scenario = Scenario(
                algorithm=algorithm,
                n=16,
                nests=_BATCH_NESTS.get(algorithm, NestConfig.all_good(4)),
                params={"matcher": matcher},
            )
            with pytest.raises(ConfigurationError, match="does not accept params"):
                run(scenario, backend=backend)

    def test_invalid_batch_chunk_rejected(self):
        scenario = Scenario(algorithm="simple", n=8, nests=NestConfig.all_good(2))
        with pytest.raises(ConfigurationError):
            run_batch([scenario], batch_chunk=0)

    def test_run_stats_rides_the_batch_path(self):
        scenario = Scenario(
            algorithm="simple",
            n=48,
            nests=NestConfig.binary(4, {1, 3}),
            seed=13,
            max_rounds=6000,
        )
        stats = run_stats(scenario, n_trials=6, batch_chunk=2)
        assert stats.n_trials == 6
        assert stats.n_converged == 6


class TestBaselineKernels:
    """The new quorum/uniform fast kernels behave like their agent twins."""

    def test_quorum_fast_agrees_with_agent_statistically(self):
        nests = NestConfig.binary(4, {1, 3})
        scenario = Scenario(
            algorithm="quorum", n=64, nests=nests, seed=17, max_rounds=8000
        )
        fast = collect_battery(scenario, 12, backend="fast")
        agent = collect_battery(scenario, 6, backend="agent")
        assert fast.converged.all()
        assert agent.converged.all()
        assert_medians_close(fast.rounds, agent.rounds, rel=0.6, label="quorum")

    def test_uniform_fast_agrees_with_agent_statistically(self):
        nests = NestConfig.all_good(4)
        scenario = Scenario(
            algorithm="uniform", n=48, nests=nests, seed=23, max_rounds=20_000
        )
        fast = run_batch(scenario.trials(10), workers=1)
        agent = [run(scenario.trial(t), backend="agent") for t in range(5)]
        fast_rounds = [r.converged_round for r in fast if r.converged]
        agent_rounds = [r.converged_round for r in agent if r.converged]
        assert fast_rounds and agent_rounds
        fast_median = float(np.median(fast_rounds))
        agent_median = float(np.median(agent_rounds))
        # The feedback-free random walk is high-variance; demand the same
        # order of magnitude, not a tight match.
        assert fast_median < 8 * agent_median
        assert agent_median < 8 * fast_median

    def test_uniform_is_slower_than_simple(self):
        """The ablation keeps its defining property on the fast engine."""
        nests = NestConfig.all_good(4)
        simple = run_stats(
            Scenario(algorithm="simple", n=64, nests=nests, seed=3, max_rounds=30_000),
            n_trials=8,
        )
        uniform = run_stats(
            Scenario(algorithm="uniform", n=64, nests=nests, seed=3, max_rounds=30_000),
            n_trials=8,
        )
        assert uniform.median_rounds > simple.median_rounds

    def test_quorum_can_split_or_settle_on_any_nest(self):
        """Quorum convergence is unanimity on *any* nest (good or bad)."""
        nests = NestConfig.binary(4, {1, 3})
        reports = run_batch(
            Scenario(
                algorithm="quorum", n=48, nests=nests, seed=31, max_rounds=8000
            ).trials(10),
            workers=1,
        )
        for report in reports:
            if report.converged:
                assert report.chosen_nest in (1, 2, 3, 4)
                assert report.solved == (report.chosen_nest in (1, 3))


class TestAgentBatchStatisticalEquivalence:
    """Convergence-time distributions and success rates must agree.

    The agent engine runs the literal v1 matcher schedule, the batch
    kernels the v2 schedule (docs/PERFORMANCE.md §3).  Runs through the
    shared harness (:mod:`tests.helpers.equivalence`): the composite
    battery check (binomial success-rate compatibility + KS over
    censoring-included round distributions) plus the historical relative-
    median tripwire.
    """

    def _sweep(self, algorithm: str, nests: NestConfig, n: int, trials: int, max_rounds: int):
        base = Scenario(
            algorithm=algorithm, n=n, nests=nests, seed=42, max_rounds=max_rounds
        )
        v1 = collect_battery(base, trials, backend="agent")
        v2 = collect_battery(base, trials, backend="fast")
        return v1, v2

    @pytest.mark.parametrize(
        "algorithm,n,trials,max_rounds",
        [("simple", 96, 30, 8000), ("optimal", 96, 24, 8000)],
    )
    def test_convergence_rounds_match(self, algorithm, n, trials, max_rounds):
        v1, v2 = self._sweep(algorithm, NestConfig.all_good(4), n, trials, max_rounds)
        assert v1.converged.all()
        assert v2.converged.all()
        assert_batteries_equivalent(v1, v2, label=f"{algorithm} agent-vs-batch")
        assert_medians_close(v1.rounds, v2.rounds, label=algorithm)

    def test_success_rates_match_on_mixed_nests(self):
        v1, v2 = self._sweep("simple", NestConfig.binary(4, {1, 3}), 64, 30, 8000)
        assert v1.solved.all() and v2.solved.all()
        assert_batteries_equivalent(v1, v2, label="simple mixed nests")

    def test_spread_completion_rounds_match(self):
        v1, v2 = self._sweep(
            "spread", NestConfig.single_good(6, good_nest=1), 96, 30, 4000
        )
        assert v1.converged.all()
        assert v2.converged.all()
        assert_batteries_equivalent(v1, v2, label="spread agent-vs-batch")
        assert_medians_close(v1.rounds, v2.rounds, label="spread")
