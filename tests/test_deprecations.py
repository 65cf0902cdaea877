"""The PR-1 deprecation timeline, now enforced at runtime.

Calling ``run_trial``/``run_trials`` from outside ``repro.sim``/``repro.api``
emits :class:`DeprecationWarning`.  The test suite at large filters these
(see ``tests/conftest.py``) because it exercises the substrate on purpose;
the tests here assert the warnings still fire for outside callers.  The
package-level ``repro.fast.simulate_*`` shims have completed the timeline
and are gone.
"""

import warnings

import pytest

from repro.core.colony import simple_factory
from repro.model.nests import NestConfig
from repro.sim.run import run_trial, run_trials


def _call_as(module_name: str, fn, *args, **kwargs):
    """Invoke ``fn`` from a frame whose module is ``module_name``.

    The deprecation check inspects the caller's ``__name__``, so building
    a tiny trampoline via ``exec`` in custom globals simulates user code
    calling the runner from outside the package.
    """
    namespace = {"__name__": module_name, "fn": fn, "args": args, "kwargs": kwargs}
    exec("result = fn(*args, **kwargs)", namespace)
    return namespace["result"]


class TestFastNamespaceImports:
    def test_result_types_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            import repro.fast

            assert repro.fast.FastRunResult is not None
            assert repro.fast.SpreadResult is not None


class TestTrialRunnerCalls:
    def test_external_run_trial_warns(self):
        with pytest.warns(DeprecationWarning, match="calling run_trial"):
            result = _call_as(
                "userscript",
                run_trial,
                simple_factory(),
                8,
                NestConfig.all_good(2),
                seed=3,
                max_rounds=500,
            )
        assert result.rounds_executed >= 1

    def test_external_run_trials_warns(self):
        with pytest.warns(DeprecationWarning, match="calling run_trials"):
            stats = _call_as(
                "userscript",
                run_trials,
                simple_factory(),
                8,
                NestConfig.all_good(2),
                2,
                max_rounds=500,
            )
        assert stats.n_trials == 2

    def test_scenario_api_path_stays_silent(self):
        from repro.api import Scenario, run

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = run(
                Scenario(
                    algorithm="simple",
                    n=8,
                    nests=NestConfig.all_good(2),
                    seed=3,
                    max_rounds=500,
                ),
                backend="agent",
            )
        assert report.backend == "agent"
