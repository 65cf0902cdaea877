"""E14 — Section 5's analogy: Algorithm 3 behaves like a Pólya urn.

For a two-nest all-good world, the initial search round splits the colony
binomially; the house-hunt then amplifies whichever nest got more ants.
We bin runs by the initial share of nest 1 and compare the empirical
probability that nest 1 wins against the superlinear (γ = 2) urn's
dominance curve — the reinforcement exponent Algorithm 3 effectively
realizes (per-round expected gain ∝ p² before normalization, Lemma 5.3) —
and against the classical γ = 1 urn, which would *not* concentrate.

One Study: a single colony cell (histories recorded, outcomes binned by
the registered ``e14_bins`` metric) plus one registered ``polya`` urn cell
per (share bin, γ).  Since the Sweep/Study port each urn cell draws its
own seeded streams instead of sharing one sequential generator, so cells
are independently reproducible and cacheable.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import Table
from repro.api import Study, StudyResult, Sweep, cases, nests_spec, register_metric
from repro.experiments.common import Experiment, register

#: Initial-share bins for nest 1 (the paper's dominance-curve abscissa).
SHARE_BINS = ((0.50, 0.52), (0.52, 0.55), (0.55, 0.60), (0.60, 0.75))


def _bins_metric(reports, stats) -> dict[str, int]:
    """Colony outcomes binned by the initially-larger nest's share."""
    values: dict[str, int] = {}
    for index in range(len(SHARE_BINS)):
        values[f"bin{index}_runs"] = 0
        values[f"bin{index}_wins"] = 0
    for result in reports:
        if result.population_history is None:
            continue  # an urn cell; binning applies to colony runs only
        if not result.converged or result.chosen_nest is None:
            continue
        initial = result.population_history[0][1:]
        share_big = initial.max() / result.n
        bigger_nest = int(np.argmax(initial)) + 1
        if initial[0] == initial[1]:
            continue  # exact tie: no "initially larger" nest to track
        for index, bounds in enumerate(SHARE_BINS):
            if bounds[0] <= share_big < bounds[1]:
                values[f"bin{index}_runs"] += 1
                values[f"bin{index}_wins"] += int(
                    result.chosen_nest == bigger_nest
                )
                break
    return values


def _urn_wins_metric(reports, stats) -> int:
    """Strictly-larger final count for urn A (ties are not wins)."""
    return sum(
        1
        for r in reports
        if r.final_counts is not None and r.final_counts[1] > r.final_counts[2]
    )


register_metric("e14_bins", _bins_metric)
register_metric("e14_urn_wins", _urn_wins_metric)


def study(
    quick: bool = False,
    base_seed: int = 0,
    n: int | None = None,
    trials: int | None = None,
    urn_trials: int | None = None,
) -> Study:
    """The E14 sweep: one colony cell + a (bin, gamma) grid of urn races."""
    if n is None:
        n = 128 if quick else 512
    if trials is None:
        trials = 80 if quick else 400
    if urn_trials is None:
        urn_trials = 100 if quick else 400

    rows: list[dict] = [
        {
            "process": "colony",
            "algorithm": "simple",
            "seed": base_seed,
            "max_rounds": 100_000,
            "record_history": True,
            "backend": "fast",
            "trials": trials,
        }
    ]
    for bin_index, (lo, hi) in enumerate(SHARE_BINS):
        share_mid = (lo + hi) / 2.0
        a = max(1, int(round(share_mid * n)))
        b = max(1, n - a)
        for gamma in (2.0, 1.0):
            rows.append(
                {
                    "process": f"urn gamma={gamma:g}",
                    "bin_index": bin_index,
                    "gamma": gamma,
                    "algorithm": "polya",
                    "seed": base_seed + 1000 * (bin_index + 1) + int(gamma),
                    "params": {
                        "initial": [a, b],
                        "gamma": gamma,
                        "steps": 4 * n,
                    },
                    "max_rounds": 4 * n,
                    "trials": urn_trials,
                }
            )
    return Study(
        name="E14",
        description="Section 5 Polya-urn analogy: dominance curves",
        sweep=Sweep(
            base={"n": n, "nests": nests_spec("all_good", k=2)},
            axes=(cases(*rows),),
        ),
        trials=trials,
        metrics=("n_trials", "e14_bins", "e14_urn_wins"),
    )


def render(outcome: StudyResult) -> Table:
    """Dominance curve: colony vs urn, binned by initial share."""
    result = outcome.table
    n = outcome.cells[0].cell.scenario.n

    table = Table(
        f"E14  Polya-urn analogy at n={n}, k=2: P(initially larger nest wins)",
        [
            "initial share bin",
            "runs",
            "colony win rate",
            "urn gamma=2",
            "urn gamma=1",
        ],
    )
    colony = result.select(process="colony")
    for bin_index, (lo, hi) in enumerate(SHARE_BINS):
        runs = int(colony[f"bin{bin_index}_runs"][0])
        wins = int(colony[f"bin{bin_index}_wins"][0])
        rate = wins / runs if runs else float("nan")
        urn2 = result.value(
            "e14_urn_wins", bin_index=bin_index, gamma=2.0
        ) / result.value("n_trials", bin_index=bin_index, gamma=2.0)
        urn1 = result.value(
            "e14_urn_wins", bin_index=bin_index, gamma=1.0
        ) / result.value("n_trials", bin_index=bin_index, gamma=1.0)
        table.add_row(f"[{lo:.2f}, {hi:.2f})", runs, rate, urn2, urn1)
    table.add_note(
        "the colony's dominance curve tracks the superlinear (gamma=2) urn — "
        "sharp lock-in for even modest initial advantages — while the "
        "classical gamma=1 urn stays near its initial share and never "
        "concentrates; this is Section 5's 'rich get richer' mechanism."
    )
    return table


EXPERIMENT = register(
    Experiment(
        id="E14",
        claim="Section 5's analogy: Algorithm 3 as a Pólya urn",
        summary=(
            "Dominance curves binned by initial share: the colony tracks the\n"
            "superlinear (γ=2) urn, not the classical γ=1 urn."
        ),
        study=study,
        render=render,
    )
)
