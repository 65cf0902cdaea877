"""Measurement processes: paper lemmas as registered one-shot algorithms.

Two of the paper's quantitative claims are not house-hunts but *sampling
experiments* over model primitives:

- **Lemma 2.1** (experiment E2): the probability that a tagged active
  recruiter recruits another ant in one Algorithm 1 pairing round;
- **Lemma 5.4** (experiment E5): the relative population gap of a fixed
  nest pair after the uniform round-1 search split (a multinomial draw).

Registering them as fast-only algorithms lets the Sweep/Study layer treat
them exactly like every other workload: one trial = one draw, reports flow
through :func:`repro.api.run_batch`, cells cache by content address, and
``success`` has the natural reading (the tagged ant succeeded; sampling
always "converges").  Per-sample detail that :class:`TrialStats` cannot
carry (the E5 gap value) rides in ``RunReport.extras`` for the study's
metric functions.

The batch kernels deliberately loop per trial rather than drawing one
vectorized sample block: every trial must consume its own
``RandomSource(seed).trial(t)`` stream so that batch execution is
bit-identical to running each trial alone (the run_batch contract) and
cached cells stay valid under any regrouping.  The cost is the per-trial
``SeedSequence`` spawn — ~70µs/trial, a second or two per full-profile E5
cell — paid once per cell and then served from the result cache.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.api.report import RunReport
from repro.api.scenario import Scenario
from repro.exceptions import ConfigurationError
from repro.model.recruitment import match_arrays
from repro.sim.rng import RandomSource


def _report(
    scenario: Scenario,
    converged: bool,
    chosen_nest: int | None,
    final_counts: np.ndarray | None,
    extras: dict,
) -> RunReport:
    return RunReport(
        algorithm=scenario.algorithm,
        backend="fast",
        n=scenario.n,
        k=scenario.nests.k,
        seed=scenario.seed,
        trial_index=scenario.trial_index,
        max_rounds=scenario.max_rounds,
        converged=converged,
        converged_round=1 if converged else None,
        rounds_executed=1,
        chosen_nest=chosen_nest,
        chose_good_nest=(
            chosen_nest is not None and scenario.nests.is_good(chosen_nest)
        ),
        final_counts=final_counts,
        population_history=None,
        extras=extras,
    )


# -- Lemma 2.1: tagged-recruiter success (one pairing round) -----------------


def tagged_recruitment_trial(
    m: int, active_fraction: float, rng: np.random.Generator
) -> bool:
    """One pairing round among ``m`` home-nest ants; did slot 0 succeed?

    The tagged ant is slot 0 and always recruits actively; of the remaining
    ``m - 1`` slots, ``round(active_fraction * (m - 1))`` also recruit.
    Lemma 2.1 counts "recruiting *another* ant", so the model's forced
    self-pairing is **not** a success.
    """
    if m < 1:
        raise ConfigurationError(f"need at least one home ant, got {m}")
    active = np.zeros(m, dtype=bool)
    active[0] = True
    n_other_active = int(round(active_fraction * (m - 1)))
    if n_other_active:
        active[1 : 1 + n_other_active] = True
    targets = np.arange(m, dtype=np.int64)
    _, recruiter_of, is_recruiter = match_arrays(active, targets, rng)
    return bool(is_recruiter[0] and recruiter_of[0] != 0)


def _tagged_params(scenario: Scenario) -> float:
    unknown = set(scenario.params) - {"active_fraction"}
    if unknown:
        raise ConfigurationError(
            f"tagged_recruitment does not accept params {sorted(unknown)}"
        )
    return float(scenario.params.get("active_fraction", 1.0))


def _tagged_trial(scenario: Scenario, source: RandomSource) -> RunReport:
    fraction = _tagged_params(scenario)
    success = tagged_recruitment_trial(scenario.n, fraction, source.matcher)
    return _report(
        scenario,
        converged=success,
        chosen_nest=1 if success else None,
        final_counts=None,
        extras={"process": "tagged_recruitment"},
    )


def _tagged_batch(scenarios: Sequence[Scenario]) -> list[RunReport]:
    return [_tagged_trial(s, s.source()) for s in scenarios]


# -- Lemma 5.4: the uniform round-1 search split -----------------------------


def _split_trial(scenario: Scenario, source: RandomSource) -> RunReport:
    if scenario.params:
        raise ConfigurationError(
            f"initial_split does not accept params {sorted(scenario.params)}"
        )
    k = scenario.nests.k
    if k < 2:
        raise ConfigurationError("initial_split needs at least two nests")
    counts = source.environment.multinomial(scenario.n, np.full(k, 1.0 / k))
    first = float(counts[0])
    second = float(counts[1])
    high, low = max(first, second), min(first, second)
    extras = {
        "process": "initial_split",
        "tie": bool(high == low),
        "empty_pair_nest": bool(low == 0),
        "gap": None if low == 0 else high / low - 1.0,
    }
    winner = int(np.argmax(counts)) + 1
    final_counts = np.concatenate([[0], counts]).astype(np.int64)
    return _report(
        scenario,
        converged=True,
        chosen_nest=winner,
        final_counts=final_counts,
        extras=extras,
    )


def _split_batch(scenarios: Sequence[Scenario]) -> list[RunReport]:
    return [_split_trial(s, s.source()) for s in scenarios]


def register_measurement_processes(registry) -> None:
    """Register both processes on ``registry`` (idempotent via caller)."""
    registry.register(
        "tagged_recruitment",
        "Lemma 2.1 sampler: one Algorithm 1 round, tagged-recruiter success",
        batch_kernel=_tagged_batch,
        params=("active_fraction",),
    )
    registry.register(
        "initial_split",
        "Lemma 5.4 sampler: uniform round-1 multinomial nest split",
        batch_kernel=_split_batch,
    )
