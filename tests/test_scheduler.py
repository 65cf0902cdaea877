"""The cell scheduler and its execution policy.

Contracts under test:

- :class:`~repro.api.CellScheduler` is exactly the executor behind
  :func:`~repro.api.run_study` — same tables, same accounting — and
  additionally streams per-cell outcomes in order;
- :class:`~repro.api.ExecutionPolicy` validates its knobs and produces
  the documented deterministic backoff schedule;
- cell-level recovery: retryable substrate faults earn retries (with the
  policy's backoff), deterministic faults don't; a repeatedly-failing
  fast cell degrades to the agent engine; an unrecoverable cell becomes
  a structured quarantine row (or raises, under fail-fast policies)
  while every other cell completes;
- configuration errors are never quarantined — a typo'd backend must
  fail loudly, not produce a "study" of failure rows.
"""

from __future__ import annotations

import pytest

import repro.api.scheduler as scheduler_module
from repro.api import (
    CellScheduler,
    ExecutionPolicy,
    ResultCache,
    Study,
    Sweep,
    grid,
    nests_spec,
    register_metric,
    run_study,
)
from repro.api.runner import run_batch as real_run_batch
from repro.exceptions import (
    CellQuarantined,
    ChunkTimeout,
    ConfigurationError,
    WorkerCrash,
)
from tests.helpers.chaos import plan_env, poison


def _study(trials: int = 4, ns: tuple = (32, 48), metrics: tuple = ()) -> Study:
    return Study(
        name="scheduler-study",
        sweep=Sweep(
            base={
                "algorithm": "simple",
                "nests": nests_spec("all_good", k=3),
                "seed": 13,
                "max_rounds": 20_000,
            },
            axes=(grid("n", ns),),
        ),
        trials=trials,
        **({"metrics": metrics} if metrics else {}),
    )


class TestExecutionPolicy:
    def test_backoff_schedule_is_deterministic(self):
        policy = ExecutionPolicy(
            backoff_base=0.05, backoff_factor=2.0, backoff_max=2.0
        )
        assert policy.backoff_delay(0) == 0.0
        assert policy.backoff_delay(1) == pytest.approx(0.05)
        assert policy.backoff_delay(2) == pytest.approx(0.10)
        assert policy.backoff_delay(3) == pytest.approx(0.20)
        assert policy.backoff_delay(10) == 2.0  # capped

    def test_zero_base_never_sleeps(self):
        policy = ExecutionPolicy(backoff_base=0.0)
        assert policy.backoff_delay(5) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_timeout": 0.0},
            {"chunk_timeout": -1.0},
            {"max_retries": -1},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_max": -1.0},
            {"quarantine_after": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(**kwargs)


class TestSchedulerIsTheRunStudyExecutor:
    def test_run_matches_run_study(self):
        study = _study()
        via_function = run_study(study, cache=None)
        with CellScheduler(study, cache=None) as scheduler:
            via_scheduler = scheduler.run()
        assert via_function.table.equals(via_scheduler.table)
        assert via_function.cache_hits == via_scheduler.cache_hits
        assert via_function.simulated_trials == via_scheduler.simulated_trials

    def test_parallel_supervised_matches_serial(self):
        study = _study(trials=6)
        serial = run_study(study, cache=None)
        supervised = run_study(
            study, workers=2, cache=None, batch_chunk=2,
            policy=ExecutionPolicy(chunk_timeout=120.0),
        )
        assert serial.table.equals(supervised.table)

    def test_outcomes_stream_in_cell_order(self):
        study = _study(ns=(32, 48, 64))
        with CellScheduler(study, cache=None) as scheduler:
            indices = [result.cell.index for result in scheduler.outcomes()]
        assert indices == [0, 1, 2]

    def test_clean_table_has_no_status_columns(self):
        result = run_study(_study(), cache=None)
        assert "status" not in result.table
        assert "error" not in result.table
        assert result.quarantined == ()
        assert result.degraded == ()

    def test_configuration_errors_are_never_quarantined(self):
        with pytest.raises(ConfigurationError):
            run_study(_study(), cache=None, backend="warp-drive")


class TestCellRecovery:
    def _flaky_run_batch(self, failures: list[BaseException]):
        """run_batch that raises the queued failures, then runs for real."""
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(kwargs.get("chaos_scope"))
            if failures:
                raise failures.pop(0)
            return real_run_batch(*args, **kwargs)

        return wrapped, calls

    def test_retryable_failure_is_retried_with_backoff(self, monkeypatch):
        wrapped, calls = self._flaky_run_batch(
            [WorkerCrash("transient"), ChunkTimeout("slow", timeout=1.0)]
        )
        monkeypatch.setattr(scheduler_module, "run_batch", wrapped)
        sleeps: list[float] = []
        policy = ExecutionPolicy(
            quarantine_after=3, backoff_base=0.05, sleep=sleeps.append
        )
        result = run_study(_study(), cache=None, policy=policy)
        assert result.quarantined == ()
        # Cell 0 failed twice then succeeded; cell 1 ran clean.
        assert len(calls) == 4
        assert sleeps == [pytest.approx(0.05), pytest.approx(0.10)]

    def test_deterministic_failure_is_not_retried(self, monkeypatch):
        wrapped, calls = self._flaky_run_batch([ValueError("kernel bug")])
        monkeypatch.setattr(scheduler_module, "run_batch", wrapped)
        policy = ExecutionPolicy(
            quarantine_after=3, degrade_to_agent=False, sleep=lambda _: None
        )
        result = run_study(_study(ns=(32,)), cache=None, policy=policy)
        (cell,) = result.cells
        assert cell.failure is not None
        assert cell.failure.kind == "ValueError"
        assert cell.failure.attempts == 1  # no pointless replay
        assert not cell.failure.retryable
        assert len(calls) == 1

    def test_quarantine_row_is_structured_and_study_completes(
        self, monkeypatch
    ):
        plan_env(monkeypatch, poison(scope="cell0", attempt="*"))
        policy = ExecutionPolicy(sleep=lambda _: None, degrade_to_agent=False)
        disturbed = run_study(
            _study(ns=(32, 48)), workers=2, cache=None, batch_chunk=2,
            policy=policy,
        )
        clean = run_study(_study(ns=(32, 48)), cache=None)
        (bad,) = disturbed.quarantined
        assert bad.cell.index == 0
        assert bad.failure.kind == "ChaosError"
        assert bad.stats is None
        # The healthy cell completed with undisturbed values.
        table = disturbed.table.to_dict()
        assert table["status"][0] == "quarantined"
        assert table["status"][1] is None
        assert "ChaosError" in table["error"][0]
        assert table["median_rounds"][1] == clean.table.to_dict()["median_rounds"][1]

    def test_fail_fast_raises_cell_quarantined(self, monkeypatch):
        wrapped, _ = self._flaky_run_batch(
            [WorkerCrash("dead"), WorkerCrash("dead again")]
        )
        monkeypatch.setattr(scheduler_module, "run_batch", wrapped)
        policy = ExecutionPolicy(
            quarantine=False, quarantine_after=2, degrade_to_agent=False,
            sleep=lambda _: None,
        )
        with pytest.raises(CellQuarantined) as excinfo:
            run_study(_study(ns=(32,)), cache=None, policy=policy)
        assert excinfo.value.cell_index == 0
        assert isinstance(excinfo.value.cause, WorkerCrash)

    def test_degrade_to_agent_on_persistent_fast_crash(self, monkeypatch):
        register_metric(
            "degraded_fraction",
            lambda reports, stats: sum(
                1 for r in reports if "degraded" in r.extras
            )
            / len(reports),
            replace=True,
        )
        # Poison only batch chunks: the fast kernel "crashes" every
        # attempt, the agent fallback (single tasks) runs clean.
        plan_env(monkeypatch, poison(kind="batch", attempt="*"))
        policy = ExecutionPolicy(sleep=lambda _: None)
        result = run_study(
            _study(ns=(32,), metrics=("success_rate", "degraded_fraction")),
            workers=2,
            cache=None,
            batch_chunk=2,
            policy=policy,
        )
        (cell,) = result.cells
        assert cell.failure is None
        assert cell.degraded == ("ChaosError",)
        assert cell.cell.backend == "agent"  # records the serving engine
        assert result.degraded == (cell,)
        table = result.table.to_dict()
        assert table["status"][0] == "degraded"
        # Every report carried extras["degraded"], like agent_fallback.
        assert table["degraded_fraction"][0] == 1.0

    def test_degraded_result_is_cached_under_agent_key(
        self, monkeypatch, tmp_path
    ):
        plan_env(monkeypatch, poison(kind="batch", attempt="*"))
        cache = ResultCache(tmp_path)
        policy = ExecutionPolicy(sleep=lambda _: None)
        study = _study(ns=(32,))
        cold = run_study(
            study, workers=2, cache=cache, batch_chunk=2, policy=policy
        )
        warm = run_study(
            study, workers=2, cache=cache, batch_chunk=2, policy=policy
        )
        assert cold.cells[0].degraded == ("ChaosError",)
        assert warm.cells[0].cached
        assert warm.simulated_trials == 0
        assert cold.table.equals(warm.table)
