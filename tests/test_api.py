"""Tests for the unified Scenario API (repro.api)."""

import pickle

import numpy as np
import pytest

from repro.api import (
    REGISTRY,
    AlgorithmRegistry,
    RunReport,
    Scenario,
    aggregate,
    resolve_backend,
    run,
    run_batch,
    run_stats,
)
from repro.exceptions import ConfigurationError
from repro.extensions.estimation import EncounterNoise, EncounterRateEstimator
from repro.model.nests import NestConfig
from repro.sim.asynchrony import DelayModel
from repro.sim.faults import CrashMode, FaultPlan
from repro.sim.noise import CountNoise
from repro.sim.run import run_trials


def nests_for(algorithm: str) -> NestConfig:
    """A small workload every algorithm accepts (spread needs good nest 1)."""
    if algorithm == "spread":
        return NestConfig.single_good(4, good_nest=1)
    return NestConfig.binary(4, {1, 3})


class TestScenario:
    def test_validation(self):
        nests = NestConfig.all_good(2)
        with pytest.raises(ConfigurationError):
            Scenario(algorithm="simple", n=0, nests=nests)
        with pytest.raises(ConfigurationError):
            Scenario(algorithm="simple", n=4, nests=nests, max_rounds=0)
        with pytest.raises(ConfigurationError):
            Scenario(algorithm="simple", n=4, nests=nests, criterion="nope")
        with pytest.raises(ConfigurationError):
            Scenario(algorithm="simple", n=4, nests=nests, trial_index=-1)

    def test_trial_derivation_matches_random_source(self):
        from repro.sim.rng import RandomSource

        scenario = Scenario(algorithm="simple", n=8, nests=NestConfig.all_good(2), seed=9)
        derived = scenario.trial(3).source()
        reference = RandomSource(9).trial(3)
        assert (
            derived.seed_sequence.spawn_key == reference.seed_sequence.spawn_key
        )
        assert derived.seed_sequence.entropy == reference.seed_sequence.entropy

    def test_dict_round_trip_full_featured(self):
        scenario = Scenario(
            algorithm="simple",
            n=64,
            nests=NestConfig.graded([0.9, 0.2, 0.6], good_threshold=0.5),
            seed=42,
            trial_index=7,
            max_rounds=1234,
            params={"note": "x", "beta": 0.5},
            noise=CountNoise(relative_sigma=0.3, quality_flip_prob=0.1),
            fault_plan=FaultPlan(
                crash_fraction=0.1,
                byzantine_fraction=0.05,
                crash_round_range=(2, 9),
                crash_mode=CrashMode.AT_NEST,
                seek_bad=False,
            ),
            delay_model=DelayModel(0.2),
            criterion="good_healthy",
            record_history=True,
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_json_round_trip_encounter_noise(self):
        scenario = Scenario(
            algorithm="simple",
            n=32,
            nests=NestConfig.binary(3, {1}),
            noise=EncounterNoise(
                estimator=EncounterRateEstimator(trials=16, capacity=64)
            ),
        )
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt == scenario
        assert isinstance(rebuilt.noise, EncounterNoise)
        assert rebuilt.noise.estimator.trials == 16

    def test_pickle_round_trip(self):
        scenario = Scenario(
            algorithm="optimal", n=16, nests=NestConfig.all_good(3), seed=5
        )
        assert pickle.loads(pickle.dumps(scenario)) == scenario

    def test_serialization_is_canonical_across_param_key_order(self):
        # Shuffled-key params must serialize (and therefore hash) identically
        # — the sweep cache's content addressing depends on it.
        nests = NestConfig.all_good(2)
        a = Scenario(
            algorithm="simple", n=8, nests=nests,
            params={"zeta": 1, "alpha": 2, "mid": {"b": 1, "a": 2}},
        )
        b = Scenario(
            algorithm="simple", n=8, nests=nests,
            params={"mid": {"a": 2, "b": 1}, "alpha": 2, "zeta": 1},
        )
        assert a == b
        assert a.to_json() == b.to_json()
        assert list(a.to_dict()["params"]) == ["alpha", "mid", "zeta"]

    def test_serialization_normalizes_numpy_scalars(self):
        import json

        import numpy as np

        scenario = Scenario(
            algorithm="simple",
            n=8,
            nests=NestConfig.all_good(2),
            params={
                "count": np.int64(4),
                "rate": np.float64(0.5),
                "flag": np.bool_(True),
                "values": [np.int32(1), np.float32(2.0)],
            },
        )
        params = scenario.to_dict()["params"]
        assert params == {
            "count": 4,
            "flag": True,
            "rate": 0.5,
            "values": [1, 2.0],
        }
        assert all(
            type(value) in (int, float, bool, list)
            for value in params.values()
        )
        # And the numpy form serializes byte-identically to the plain form.
        plain = scenario.replace(
            params={"count": 4, "rate": 0.5, "flag": True, "values": [1, 2.0]}
        )
        assert scenario.to_json() == plain.to_json()
        json.loads(scenario.to_json())  # genuinely JSON-safe


class TestRegistry:
    def test_every_entry_runs_on_every_supported_backend(self):
        for entry in REGISTRY:
            scenario = Scenario(
                algorithm=entry.name,
                n=24,
                nests=nests_for(entry.name),
                seed=3,
                max_rounds=3000,
            )
            assert entry.backends, entry.name
            for backend in entry.backends:
                if backend == "fast" and not entry.supports_fast(scenario):
                    continue
                report = run(scenario, backend=backend)
                assert isinstance(report, RunReport)
                assert report.backend == backend
                assert report.algorithm == entry.name
                assert report.rounds_executed >= 1

    def test_papers_algorithms_register_both_engines(self):
        for name in ("simple", "optimal", "spread", "adaptive"):
            entry = REGISTRY.get(name)
            assert entry.has_agent and entry.has_fast, name

    def test_all_four_baselines_registered(self):
        for name in ("quorum", "uniform", "rumor", "polya"):
            assert name in REGISTRY, name

    def test_unknown_algorithm_raises_with_known_names(self):
        with pytest.raises(ConfigurationError, match="simple"):
            REGISTRY.get("definitely-not-registered")

    def test_unknown_params_rejected(self):
        scenario = Scenario(
            algorithm="simple",
            n=8,
            nests=NestConfig.all_good(2),
            params={"bogus_knob": 1},
        )
        with pytest.raises(ConfigurationError, match="bogus_knob"):
            run(scenario, backend="fast")

    def test_duplicate_registration_rejected(self):
        registry = AlgorithmRegistry()
        registry.register("x", "first", agent_builder=lambda s: (None, None))
        with pytest.raises(ConfigurationError):
            registry.register("x", "second", agent_builder=lambda s: (None, None))
        registry.register("x", "third", agent_builder=lambda s: (None, None), replace=True)
        assert registry.get("x").summary == "third"


class TestBackendSelection:
    def test_auto_prefers_fast_for_plain_scenarios(self):
        scenario = Scenario(algorithm="simple", n=16, nests=NestConfig.all_good(2))
        assert resolve_backend(scenario) == "fast"

    def test_auto_keeps_perturbed_simple_scenarios_on_the_fast_path(self):
        # Since the perturbation-aware batch kernels, faults, delays and
        # quality flips no longer force the simple family off the fast path.
        nests = NestConfig.all_good(2)
        faulted = Scenario(
            algorithm="simple", n=16, nests=nests,
            fault_plan=FaultPlan(crash_fraction=0.1),
        )
        delayed = Scenario(
            algorithm="simple", n=16, nests=nests, delay_model=DelayModel(0.1)
        )
        flipping = Scenario(
            algorithm="simple", n=16, nests=nests,
            noise=CountNoise(quality_flip_prob=0.5),
        )
        assert resolve_backend(faulted) == "fast"
        assert resolve_backend(delayed) == "fast"
        assert resolve_backend(flipping) == "fast"

    def test_auto_falls_back_to_agent_for_unimplemented_features(self):
        # Algorithm 2's kernel declares no perturbation features, so the
        # same layers still fall back — and the report says why.
        scenario = Scenario(
            algorithm="optimal",
            n=16,
            nests=NestConfig.all_good(2),
            fault_plan=FaultPlan(crash_fraction=0.1),
            max_rounds=40,
        )
        assert resolve_backend(scenario) == "agent"
        report = run(scenario)
        assert report.backend == "agent"
        assert report.extras["agent_fallback"] == ["fault_plan.crash"]

    def test_explicit_fast_with_unsupported_feature_raises(self):
        scenario = Scenario(
            algorithm="optimal",
            n=16,
            nests=NestConfig.all_good(2),
            fault_plan=FaultPlan(crash_fraction=0.1),
        )
        with pytest.raises(ConfigurationError, match="fault_plan.crash"):
            run(scenario, backend="fast")

    def test_agent_backend_missing_raises(self):
        scenario = Scenario(algorithm="rumor", n=16, nests=NestConfig.all_good(2))
        with pytest.raises(ConfigurationError):
            run(scenario, backend="agent")

    def test_unknown_backend_rejected(self):
        scenario = Scenario(algorithm="simple", n=16, nests=NestConfig.all_good(2))
        with pytest.raises(ConfigurationError):
            run(scenario, backend="warp")


class TestRunReportParity:
    def test_agent_and_fast_share_the_schema(self):
        scenario = Scenario(
            algorithm="simple",
            n=48,
            nests=NestConfig.binary(4, {1, 3}),
            seed=11,
            max_rounds=5000,
        )
        fast = run(scenario, backend="fast")
        agent = run(scenario, backend="agent")
        assert set(fast.to_dict()) == set(agent.to_dict())
        for report in (fast, agent):
            assert report.converged
            assert report.chose_good_nest
            assert report.solved
            assert report.k == 4
            assert report.final_counts is not None
            assert int(report.final_counts.sum()) == scenario.n

    def test_report_to_dict_is_json_safe(self):
        import json

        scenario = Scenario(
            algorithm="optimal", n=32, nests=NestConfig.all_good(2), seed=1,
            max_rounds=4000,
        )
        report = run(scenario, backend="fast")
        text = json.dumps(report.to_dict(include_history=True))
        assert "converged" in text

    def test_population_history_parity(self):
        scenario = Scenario(
            algorithm="simple",
            n=24,
            nests=NestConfig.all_good(2),
            seed=4,
            max_rounds=2000,
            record_history=True,
        )
        fast = run(scenario, backend="fast")
        agent = run(scenario, backend="agent")
        for report in (fast, agent):
            assert report.population_history is not None
            assert report.population_history.shape[1] == scenario.nests.k + 1
            assert report.population_history.shape[0] == report.rounds_executed


class TestRunBatch:
    def test_workers_do_not_change_results(self):
        scenario = Scenario(
            algorithm="simple",
            n=32,
            nests=NestConfig.all_good(3),
            seed=21,
            max_rounds=3000,
        )
        serial = run_batch(scenario.trials(6), workers=1)
        parallel = run_batch(scenario.trials(6), workers=4)
        assert [r.converged_round for r in serial] == [
            r.converged_round for r in parallel
        ]
        assert [r.chosen_nest for r in serial] == [r.chosen_nest for r in parallel]
        assert [r.trial_index for r in parallel] == list(range(6))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.final_counts, b.final_counts)

    def test_batch_matches_individual_runs(self):
        scenario = Scenario(
            algorithm="optimal",
            n=24,
            nests=NestConfig.all_good(2),
            seed=8,
            max_rounds=3000,
        )
        batch = run_batch(scenario.trials(3), workers=1, backend="fast")
        singles = [run(scenario.trial(t), backend="fast") for t in range(3)]
        assert [r.converged_round for r in batch] == [
            r.converged_round for r in singles
        ]

    def test_invalid_workers(self):
        scenario = Scenario(algorithm="simple", n=8, nests=NestConfig.all_good(2))
        with pytest.raises(ConfigurationError):
            run_batch([scenario], workers=0)


class TestAggregation:
    def test_run_stats_matches_run_trials(self):
        """The Scenario API reproduces the legacy agent-engine aggregates."""
        from repro.core.colony import simple_factory

        nests = NestConfig.binary(4, {1, 3})
        scenario = Scenario(
            algorithm="simple", n=32, nests=nests, seed=13, max_rounds=3000
        )
        stats_api = run_stats(scenario, n_trials=5, backend="agent")
        stats_legacy = run_trials(
            simple_factory(), 32, nests, n_trials=5, base_seed=13, max_rounds=3000
        )
        assert stats_api.n_trials == stats_legacy.n_trials
        assert stats_api.n_converged == stats_legacy.n_converged
        assert stats_api.chosen_nests == stats_legacy.chosen_nests
        assert np.array_equal(stats_api.rounds, stats_legacy.rounds)
        assert stats_api.censored_at == stats_legacy.censored_at

    def test_aggregate_counts_only_good_nest_convergence(self):
        good = RunReport(
            algorithm="x", backend="fast", n=4, k=2, seed=0, trial_index=0,
            max_rounds=100, converged=True, converged_round=10,
            rounds_executed=10, chosen_nest=1, chose_good_nest=True,
        )
        bad = RunReport(
            algorithm="x", backend="fast", n=4, k=2, seed=0, trial_index=1,
            max_rounds=100, converged=True, converged_round=12,
            rounds_executed=12, chosen_nest=2, chose_good_nest=False,
        )
        stats = aggregate([good, bad])
        assert stats.n_trials == 2
        assert stats.n_converged == 1
        assert stats.success_rate == 0.5
        assert stats.chosen_nests == {1: 1, 2: 1}


class TestStandaloneProcesses:
    def test_rumor_kernel(self):
        scenario = Scenario(
            algorithm="rumor",
            n=128,
            nests=NestConfig.all_good(2),
            seed=5,
            params={"mode": "push_pull"},
        )
        report = run(scenario)
        assert report.converged
        assert report.chosen_nest is None
        assert 1 <= report.rounds_to_convergence < 64

    def test_rumor_completion_exactly_at_the_cap_counts(self):
        # n=2 with one informed node: push gossip completes in round 1.
        scenario = Scenario(
            algorithm="rumor",
            n=2,
            nests=NestConfig.all_good(2),
            seed=0,
            max_rounds=1,
        )
        report = run(scenario)
        assert report.converged
        assert report.converged_round == 1
        assert report.rounds_executed <= scenario.max_rounds

    def test_polya_steps_bounded_by_max_rounds(self):
        scenario = Scenario(
            algorithm="polya",
            n=1000,
            nests=NestConfig.all_good(2),
            seed=0,
            max_rounds=100,
        )
        report = run(scenario)
        assert report.rounds_executed == 100
        assert report.converged_round == 100

    def test_polya_kernel(self):
        scenario = Scenario(
            algorithm="polya",
            n=64,
            nests=NestConfig.all_good(2),
            seed=5,
            params={"gamma": 2.0, "steps": 200},
        )
        report = run(scenario)
        assert report.converged
        assert report.chosen_nest in (1, 2)
        assert report.chose_good_nest
        assert int(report.final_counts.sum()) == 64 + 200

    @pytest.mark.parametrize("initial", [[30, 20, 10], [10, 20, 30]])
    def test_polya_more_urns_than_nests_rejected(self, initial):
        # Used to return a k=2 report with four final counts, or to raise
        # "nest id 3 out of range" only when urn 3 happened to win.
        scenario = Scenario(
            algorithm="polya",
            n=60,
            nests=NestConfig.all_good(2),
            params={"initial": initial, "steps": 50},
        )
        with pytest.raises(ConfigurationError, match="initial"):
            run(scenario)

    def test_polya_fewer_urns_than_nests_rejected(self):
        scenario = Scenario(
            algorithm="polya",
            n=50,
            nests=NestConfig.all_good(4),
            params={"initial": [30, 20], "steps": 50},
        )
        with pytest.raises(ConfigurationError, match="initial"):
            run(scenario)

    def test_polya_fractional_initial_rejected(self):
        # Used to be truncated to [30, 20].
        scenario = Scenario(
            algorithm="polya",
            n=50,
            nests=NestConfig.all_good(2),
            params={"initial": [30.9, 20.2], "steps": 50},
        )
        with pytest.raises(ConfigurationError, match="initial"):
            run(scenario)

    def test_polya_negative_steps_rejected(self):
        # Used to raise a bare numpy ValueError.
        scenario = Scenario(
            algorithm="polya",
            n=50,
            nests=NestConfig.all_good(2),
            params={"steps": -5},
        )
        with pytest.raises(ConfigurationError, match="'steps'"):
            run_batch(scenario.trials(3))

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 400.0])
    def test_polya_gamma_without_finite_weights_rejected(self, gamma):
        # NaN, infinite or overflowing urn weights used to reach
        # Generator.choice and raise a bare ValueError.
        scenario = Scenario(
            algorithm="polya",
            n=50,
            nests=NestConfig.all_good(2),
            params={"gamma": gamma, "steps": 50},
        )
        with pytest.raises(ConfigurationError, match="gamma"):
            run(scenario)

    def test_rumor_unknown_mode_rejected(self):
        # Used to raise a bare ValueError from the RumorMode enum.
        scenario = Scenario(
            algorithm="rumor",
            n=64,
            nests=NestConfig.all_good(2),
            params={"mode": "banana"},
        )
        with pytest.raises(ConfigurationError, match="'mode'"):
            run(scenario)

    def test_rumor_fractional_initial_informed_rejected(self):
        # Used to be truncated to 2.
        scenario = Scenario(
            algorithm="rumor",
            n=64,
            nests=NestConfig.all_good(2),
            params={"initial_informed": 2.5},
        )
        with pytest.raises(ConfigurationError, match="'initial_informed'"):
            run(scenario)

    def test_spread_backends_agree_on_workload(self):
        scenario = Scenario(
            algorithm="spread",
            n=48,
            nests=NestConfig.single_good(6, good_nest=1),
            seed=2,
            max_rounds=2000,
        )
        fast = run(scenario, backend="fast")
        agent = run(scenario, backend="agent")
        assert fast.converged and agent.converged
        assert fast.chosen_nest == agent.chosen_nest == 1
        assert "informed_history" in fast.extras
