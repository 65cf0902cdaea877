"""The statistical-equivalence harness shared across engine-parity suites.

Factored out of the v1-vs-v2 suites (``tests/test_matcher_v2.py``, and the
agent-vs-batch checks in ``tests/test_batch_engine.py``) so every claim of
the form "engine A and engine B sample the same law" — matcher schedules,
batch kernels, and the vectorized perturbation layers against their
agent-engine wrappers — is made with one vocabulary and one set of
tolerances:

- **Two-sample Kolmogorov–Smirnov** distance over convergence-round
  distributions (censored trials contribute their ``max_rounds`` atom, so
  engines must also censor alike), against the asymptotic critical value at
  a small ``alpha``.  Implemented directly on numpy so the harness has no
  dependency beyond the package itself.
- **Binomial compatibility** of success rates via overlapping Wilson score
  intervals (:func:`repro.analysis.stats.wilson_interval`), the right
  shape near the 0/1 rates our claims live at.
- **Pooled-SD mean comparison** for matched summary statistics (the
  original matcher-suite notion).
- **Fixed-seed trial batteries**: both sides draw trials
  ``RandomSource(seed).trial(t)`` through :func:`repro.api.run_batch`, so
  a battery is a pure function of ``(scenario, backend, trials)`` and
  failures replay exactly.

The tolerances are deliberately loose (``alpha = 1e-3``, ``z = 4``): these
are regression tripwires for *distribution-level* divergence across
hundreds of CI runs, not significance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import RunReport, Scenario, run_batch
from repro.analysis.stats import wilson_interval

#: Default false-alarm rate for the KS tripwire.
DEFAULT_ALPHA = 1e-3
#: Default pooled-SD multiple for mean comparisons.
DEFAULT_Z = 4.0
#: Default confidence for Wilson-interval overlap checks.
DEFAULT_CONFIDENCE = 0.999


# -- two-sample Kolmogorov–Smirnov -------------------------------------------


def ks_statistic(a, b) -> float:
    """Sup-distance between the empirical CDFs of two samples."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("KS statistic needs two non-empty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical(n: int, m: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Asymptotic two-sample KS rejection threshold at level ``alpha``."""
    coefficient = np.sqrt(-np.log(alpha / 2.0) / 2.0)
    return float(coefficient * np.sqrt((n + m) / (n * m)))


def assert_ks_equivalent(a, b, alpha: float = DEFAULT_ALPHA, label: str = ""):
    """Fail when the two samples' CDFs are further apart than chance allows."""
    statistic = ks_statistic(a, b)
    threshold = ks_critical(len(a), len(b), alpha)
    assert statistic <= threshold, (
        f"{label or 'samples'}: KS distance {statistic:.3f} exceeds the "
        f"alpha={alpha} threshold {threshold:.3f} "
        f"(n={len(a)}, m={len(b)})"
    )


# -- binomial success-rate compatibility -------------------------------------


def assert_rates_compatible(
    successes_a: int,
    trials_a: int,
    successes_b: int,
    trials_b: int,
    confidence: float = DEFAULT_CONFIDENCE,
    label: str = "",
):
    """Fail when the two Wilson score intervals do not even overlap."""
    lo_a, hi_a = wilson_interval(successes_a, trials_a, confidence)
    lo_b, hi_b = wilson_interval(successes_b, trials_b, confidence)
    assert max(lo_a, lo_b) <= min(hi_a, hi_b), (
        f"{label or 'rates'}: {successes_a}/{trials_a} vs "
        f"{successes_b}/{trials_b} — Wilson {confidence:.1%} intervals "
        f"[{lo_a:.3f}, {hi_a:.3f}] and [{lo_b:.3f}, {hi_b:.3f}] are disjoint"
    )


# -- summary-statistic comparisons -------------------------------------------


def assert_means_close(a, b, z: float = DEFAULT_Z, label: str = ""):
    """Pooled-SD mean comparison (the matcher suites' original notion)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pooled_sd = np.sqrt(a.var() / a.size + b.var() / b.size)
    gap = abs(float(a.mean()) - float(b.mean()))
    assert gap <= z * pooled_sd or gap == 0.0, (
        f"{label or 'means'}: |{a.mean():.3f} - {b.mean():.3f}| = {gap:.3f} "
        f"exceeds {z} pooled SDs ({z * pooled_sd:.3f})"
    )


def assert_medians_close(a, b, rel: float = 0.35, label: str = ""):
    """Relative median comparison (the batch-engine suites' notion)."""
    med_a = float(np.median(np.asarray(a, dtype=float)))
    med_b = float(np.median(np.asarray(b, dtype=float)))
    bound = rel * max(med_a, med_b)
    assert abs(med_a - med_b) <= bound, (
        f"{label or 'medians'}: |{med_a:.1f} - {med_b:.1f}| exceeds "
        f"{rel:.0%} of max ({bound:.1f})"
    )


# -- fixed-seed trial batteries ----------------------------------------------


@dataclass(frozen=True)
class TrialBattery:
    """The comparison-ready outcome arrays of one scenario's trial sweep."""

    backend: str
    rounds: np.ndarray  # rounds to convergence; censored trials = max_rounds
    solved: np.ndarray  # converged on a *good* nest
    converged: np.ndarray
    reports: tuple[RunReport, ...]

    @property
    def n_trials(self) -> int:
        return len(self.reports)

    @property
    def n_solved(self) -> int:
        return int(self.solved.sum())

    @property
    def solved_rounds(self) -> np.ndarray:
        """Convergence rounds of the solved trials only."""
        return self.rounds[self.solved]


def collect_battery(
    scenario: Scenario,
    trials: int,
    backend: str = "auto",
    workers: int = 1,
    batch_chunk: int | None = None,
) -> TrialBattery:
    """Run the scenario's first ``trials`` seeded trials on one backend."""
    reports = run_batch(
        scenario.trials(trials),
        workers=workers,
        backend=backend,
        batch_chunk=batch_chunk,
    )
    return TrialBattery(
        backend=backend,
        rounds=np.asarray([r.rounds_to_convergence for r in reports], dtype=np.int64),
        solved=np.asarray([r.solved for r in reports], dtype=bool),
        converged=np.asarray([r.converged for r in reports], dtype=bool),
        reports=tuple(reports),
    )


def assert_batteries_equivalent(
    a: TrialBattery,
    b: TrialBattery,
    alpha: float = DEFAULT_ALPHA,
    confidence: float = DEFAULT_CONFIDENCE,
    label: str = "",
):
    """The composite engine-parity claim for one scenario.

    Success rates must be binomially compatible and the full
    (censoring-included) convergence-round distributions must pass the KS
    tripwire.  Censored trials carry ``max_rounds``, so an engine that
    converges where the other stalls fails the KS check too.
    """
    assert_rates_compatible(
        a.n_solved,
        a.n_trials,
        b.n_solved,
        b.n_trials,
        confidence=confidence,
        label=f"{label} success rate" if label else "success rate",
    )
    assert_ks_equivalent(
        a.rounds,
        b.rounds,
        alpha=alpha,
        label=f"{label} rounds" if label else "rounds",
    )


# -- bit-level report identity ------------------------------------------------


def reports_bit_identical(a: RunReport, b: RunReport) -> bool:
    """Field-for-field identity of two reports (the batching invariant)."""
    if (
        a.converged != b.converged
        or a.converged_round != b.converged_round
        or a.rounds_executed != b.rounds_executed
        or a.chosen_nest != b.chosen_nest
        or a.extras.get("matcher") != b.extras.get("matcher")
    ):
        return False
    if (a.final_counts is None) != (b.final_counts is None):
        return False
    if a.final_counts is not None and not np.array_equal(
        a.final_counts, b.final_counts
    ):
        return False
    if (a.population_history is None) != (b.population_history is None):
        return False
    if a.population_history is not None and not np.array_equal(
        a.population_history, b.population_history
    ):
        return False
    return True


def assert_reports_bit_identical(got, expected, label: str = ""):
    """Pairwise bit-identity of two report lists."""
    assert len(got) == len(expected), label
    for index, (a, b) in enumerate(zip(got, expected)):
        assert reports_bit_identical(a, b), (
            f"{label or 'reports'}: trial {index} diverged "
            f"({a.converged_round} vs {b.converged_round} rounds)"
        )
