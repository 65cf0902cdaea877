"""Vectorized re-implementations of the paper's processes.

The agent-based engine (:mod:`repro.sim`) is the readable reference; the
trial-parallel batch kernels (:mod:`repro.fast.batch`) keep all per-ant
state in ``(trials, ants)`` numpy arrays and re-implement the same round
semantics under the data-independent v2 matcher schedule
(:mod:`repro.fast.batch_matcher`), making sweeps at ``n = 2^12 .. 2^16``
practical.  Tests assert statistical equivalence of the two engines'
convergence-round distributions on common configurations.

Experiment and application code goes through the Scenario API
(:func:`repro.api.run` / :func:`repro.api.run_batch`), which dispatches to
these kernels via the algorithm registry.
"""

from repro.fast.results import FastRunResult, SpreadResult

__all__ = ["FastRunResult", "SpreadResult"]
