"""Chaos injection: recovery is bit-deterministic, and nothing leaks.

The paper's colonies tolerate crashed and Byzantine ants; these tests
assert the execution substrate tolerates crashed and Byzantine *workers*.
Every scenario drives a real multiprocess run under a deterministic
``$REPRO_CHAOS`` plan (:mod:`tests.helpers.chaos`) and checks the two
resilience invariants:

1. **bit-determinism** — a study disturbed by SIGKILLed workers, stalled
   chunks, or transient flakes produces a ``ResultTable`` bit-identical
   (``equals``) to an undisturbed run, and recovered reports still match
   the committed golden digests;
2. **one supervised path** — every parallel ``run_batch`` is supervised,
   with or without an explicit policy, and a deterministic failure stops
   only its own call: a shared pool keeps its healthy workers.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ExecutionPolicy,
    Study,
    Sweep,
    WorkerPool,
    grid,
    nests_spec,
    run_batch,
    run_study,
)
from repro.api import chaos
from repro.api.chaos import ChaosError
from repro.exceptions import ConfigurationError
from tests.helpers.chaos import (
    flake,
    kill,
    plan_env,
    poison,
    seeded_plan,
    stall,
)
from tests.helpers.golden import digest_reports, golden_cases, load_golden

#: Fast-converging recovery policy: tight backoff so retry rounds don't
#: dominate test wall-clock; a 1 s chunk deadline for the stall cases.
POLICY = ExecutionPolicy(
    chunk_timeout=1.0, backoff_base=0.01, backoff_max=0.05
)


def _study(ns: tuple = (32, 48), trials: int = 6) -> Study:
    return Study(
        name="chaos-study",
        sweep=Sweep(
            base={
                "algorithm": "simple",
                "nests": nests_spec("all_good", k=3),
                "seed": 21,
                "max_rounds": 20_000,
            },
            axes=(grid("n", ns),),
        ),
        trials=trials,
    )


def plan_of(monkeypatch, value):
    monkeypatch.setenv("REPRO_CHAOS", value)
    return chaos.active_plan()


class TestPlanParsing:
    def test_unset_and_switch_values_mean_empty_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert chaos.active_plan() == []
        for value in ("", "1", "on", "TRUE", "0", "off"):
            assert plan_of(monkeypatch, value) == []

    def test_inline_json_list(self, monkeypatch):
        plan = plan_of(monkeypatch, '[{"action": "kill", "task": 2}]')
        assert plan == [{"action": "kill", "task": 2}]

    def test_entries_object_and_unknown_actions_rejected(self, monkeypatch):
        """The object form reads its ``entries`` list.  An entry the hooks
        could not run stops the run instead of being dropped, so a typo in
        an action cannot pass for an undisturbed run."""
        good = {"action": "stall", "seconds": 1}
        text = json.dumps({"entries": [good]})
        assert plan_of(monkeypatch, text) == [good]
        for bad in ({"action": "reformat-disk"}, {"seconds": 1}, "not-a-dict"):
            text = json.dumps({"entries": [good, bad]})
            with pytest.raises(ConfigurationError, match="REPRO_CHAOS"):
                plan_of(monkeypatch, text)
        with pytest.raises(ConfigurationError, match="REPRO_CHAOS"):
            plan_of(monkeypatch, '{"no": "entries"}')

    def test_file_reference(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('[{"action": "flake"}]', encoding="utf-8")
        assert plan_of(monkeypatch, f"@{path}") == [{"action": "flake"}]

    @pytest.mark.parametrize(
        "value",
        [
            "{not json",
            "@{tmp}/missing.json",
            "{tmp}/plan.json",
            '{"entries": 5}',
            "banana",
        ],
    )
    def test_malformed_values_are_rejected(self, monkeypatch, tmp_path, value):
        """A mistyped plan must stop the run, not pass for an undisturbed
        one.  A bare path (no ``@``) is not a plan reference."""
        (tmp_path / "plan.json").write_text('[{"action": "flake"}]')
        with pytest.raises(ConfigurationError, match="REPRO_CHAOS"):
            plan_of(monkeypatch, value.replace("{tmp}", str(tmp_path)))

    def test_inject_matches_coordinates(self, monkeypatch):
        plan_env(monkeypatch, poison(scope="cellX", task=2))
        # Wrong task, wrong scope, wrong attempt: all no-ops.
        chaos.maybe_inject("cellX", 1, 0, "batch", "start")
        chaos.maybe_inject("cellY", 2, 0, "batch", "start")
        chaos.maybe_inject("cellX", 2, 1, "batch", "start")
        chaos.maybe_inject("cellX", 2, 0, "batch", "result")
        with pytest.raises(ChaosError):
            chaos.maybe_inject("cellX", 2, 0, "batch", "start")

    def test_inject_without_plan_is_inert(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        chaos.maybe_inject("cell0", 0, 0, "batch", "start")


class TestRecoveryDeterminism:
    def test_flake_is_retried_bit_identically(self, monkeypatch):
        study = _study()
        undisturbed = run_study(study, cache=None)
        plan_env(monkeypatch, flake(scope="cell0", task=0))
        disturbed = run_study(
            study, workers=2, cache=None, batch_chunk=2, policy=POLICY
        )
        assert undisturbed.table.equals(disturbed.table)

    def test_killed_worker_recovers_at_any_worker_count(self, monkeypatch):
        study = _study()
        serial = run_study(study, cache=None)
        parallel = run_study(study, workers=4, cache=None, batch_chunk=2)
        plan_env(monkeypatch, kill(scope="cell0", task=0))
        disturbed = run_study(
            study, workers=4, cache=None, batch_chunk=2, policy=POLICY
        )
        assert serial.table.equals(disturbed.table)
        assert parallel.table.equals(disturbed.table)

    def test_stalled_chunk_times_out_and_recovers(self, monkeypatch):
        study = _study(ns=(32,))
        undisturbed = run_study(study, cache=None)
        plan_env(monkeypatch, stall(30.0, scope="cell0", task=1))
        disturbed = run_study(
            study, workers=2, cache=None, batch_chunk=2, policy=POLICY
        )
        assert undisturbed.table.equals(disturbed.table)

    def test_seeded_plan_recovers_bit_identically(self, monkeypatch):
        study = _study(ns=(48,))
        undisturbed = run_study(study, cache=None)
        plan = seeded_plan(seed=5, n_tasks=3, scope="cell0")
        plan_env(monkeypatch, *plan)
        disturbed = run_study(
            study, workers=2, cache=None, batch_chunk=2, policy=POLICY
        )
        assert undisturbed.table.equals(disturbed.table)

    def test_golden_digests_survive_chaos_recovery(self, monkeypatch):
        name = "simple_clean"
        scenarios = golden_cases()[name]
        plan_env(monkeypatch, kill(task=1))
        reports = run_batch(
            scenarios, workers=2, batch_chunk=2, policy=POLICY
        )
        assert digest_reports(reports) == load_golden()[name]


class TestAcceptanceScenario:
    def test_kill_stall_and_poison_in_one_study(self, monkeypatch):
        """The ISSUE acceptance run: SIGKILL one worker, stall another
        past the deadline, poison one cell's kernel on every attempt —
        the study completes, the poisoned cell is quarantined, and every
        other cell is bit-identical to the undisturbed run."""
        study = _study(ns=(32, 48, 64))
        undisturbed = run_study(study, cache=None)
        plan_env(
            monkeypatch,
            kill(scope="cell0", task=0),
            stall(30.0, scope="cell1", task=1),
            poison(scope="cell2", attempt="*"),
        )
        policy = ExecutionPolicy(
            chunk_timeout=1.0,
            backoff_base=0.01,
            backoff_max=0.05,
            degrade_to_agent=False,
        )
        disturbed = run_study(
            study, workers=2, cache=None, batch_chunk=2, policy=policy
        )
        assert len(disturbed.cells) == 3
        (bad,) = disturbed.quarantined
        assert bad.cell.index == 2
        assert bad.failure.kind == "ChaosError"
        clean_columns = undisturbed.table.to_dict()
        got_columns = disturbed.table.to_dict()
        for name, values in clean_columns.items():
            assert got_columns[name][:2] == values[:2], name
        assert got_columns["status"] == [None, None, "quarantined"]

    def test_chaos_smoke_switch_is_inert(self, monkeypatch):
        """$REPRO_CHAOS=1 (the CI chaos-smoke switch) enables the hooks
        with an empty plan — results must be untouched."""
        study = _study(ns=(32,))
        undisturbed = run_study(study, cache=None)
        monkeypatch.setenv("REPRO_CHAOS", "1")
        smoke = run_study(
            study, workers=2, cache=None, batch_chunk=2, policy=POLICY
        )
        assert undisturbed.table.equals(smoke.table)


class TestOneDispatchPath:
    """Parallel dispatch has one path: supervised, over packed columns."""

    def _scenarios(self):
        from repro.api import Scenario
        from repro.model.nests import NestConfig

        return Scenario(
            algorithm="simple",
            n=64,
            nests=NestConfig.all_good(3),
            seed=33,
            max_rounds=20_000,
        ).trials(6)

    @staticmethod
    def _assert_same(expected, got):
        assert len(expected) == len(got)
        for a, b in zip(expected, got):
            assert a.to_dict(include_history=True) == b.to_dict(
                include_history=True
            )

    def test_supervised_kill_after_segment_creation(self, monkeypatch):
        scenarios = self._scenarios()
        serial = run_batch(scenarios)
        # Kill at phase "result": the worker has already simulated and
        # packed its chunk when it dies, before the result is returned.
        plan_env(monkeypatch, kill(task=0, phase="result"))
        recovered = run_batch(
            scenarios, workers=2, batch_chunk=2, policy=POLICY
        )
        self._assert_same(serial, recovered)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_malformed_plan_fails_at_every_worker_count(self, monkeypatch, workers):
        """The parent reads the plan before it dispatches, so a serial run
        rejects a malformed plan exactly as a pooled one does."""
        monkeypatch.setenv("REPRO_CHAOS", "{bad")
        with pytest.raises(ConfigurationError, match="REPRO_CHAOS"):
            run_batch(self._scenarios(), workers=workers, batch_chunk=2)

    def test_bare_parallel_run_batch_retries_a_flake(self, monkeypatch):
        """No ``policy=``: the default ExecutionPolicy still supervises."""
        scenarios = self._scenarios()
        serial = run_batch(scenarios)
        plan_env(monkeypatch, flake(task=0))
        recovered = run_batch(scenarios, workers=2, batch_chunk=2)
        self._assert_same(serial, recovered)

    @pytest.mark.parametrize("shared", [False, True], ids=["transient", "shared"])
    def test_bare_parallel_run_batch_recovers_a_killed_worker(
        self, monkeypatch, shared
    ):
        """No ``policy=``, on a transient pool or the caller's: a SIGKILLed
        worker is respawned and its chunk retried bit-identically."""
        scenarios = self._scenarios()
        serial = run_batch(scenarios)
        plan_env(monkeypatch, kill(task=0))
        if shared:
            with WorkerPool(2) as pool:
                recovered = run_batch(scenarios, batch_chunk=2, pool=pool)
                assert pool.started
        else:
            recovered = run_batch(scenarios, workers=2, batch_chunk=2)
        self._assert_same(serial, recovered)

    def test_one_policy_class_and_no_dispatch_knobs(self):
        """``ExecutionPolicy`` is one class, defined next to the dispatcher;
        neither it nor any entry point offers a dispatch or transport
        switch."""
        import dataclasses
        import inspect

        import repro.api
        from repro.api import runner, scheduler
        from repro.api.scheduler import CellScheduler
        from repro.service.daemon import StudyService

        assert repro.api.ExecutionPolicy is runner.ExecutionPolicy
        assert scheduler.ExecutionPolicy is runner.ExecutionPolicy
        fields = {f.name for f in dataclasses.fields(ExecutionPolicy)}
        assert "supervise" not in fields
        assert not hasattr(repro.api, "TRANSPORTS")
        for entry_point in (run_batch, run_study, CellScheduler, StudyService):
            params = inspect.signature(entry_point).parameters
            assert "transport" not in params, entry_point.__name__

    def test_deterministic_failure_keeps_the_shared_pool(self, monkeypatch):
        """A non-retryable task exception re-raises without killing the
        pool: the next call is served by the same worker processes."""
        scenarios = self._scenarios()
        serial = run_batch(scenarios)
        plan_env(monkeypatch, poison(scope="poisoned", task=0))
        with WorkerPool(2) as pool:
            with pytest.raises(ChaosError):
                run_batch(
                    scenarios,
                    batch_chunk=2,
                    pool=pool,
                    policy=POLICY,
                    chaos_scope="poisoned",
                )
            assert pool.started
            executor = pool.executor()
            pids = set(executor._processes)
            after = run_batch(scenarios, batch_chunk=2, pool=pool)
            assert pool.executor() is executor
            assert set(executor._processes) == pids
        self._assert_same(serial, after)
