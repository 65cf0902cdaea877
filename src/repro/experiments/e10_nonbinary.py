"""E10 — Section 6 "Non-binary nest qualities": quality-weighted recruitment.

Two nests with qualities ``0.5 + gap`` and ``0.5 − gap``; the colony runs
:class:`~repro.extensions.nonbinary.QualityWeightedAnt` and we measure the
probability the *better* nest wins and the rounds to unanimity, sweeping
the gap and the quality weight (the speed/accuracy dial of Pratt & Sumpter
that the paper cites).  Expected shape: accuracy increases with both the
gap and the weight; a weight of 0 reduces to quality-blind Algorithm 3
(accuracy tracks only the initial population split, ≈ 50%).

The historical trial-stream layout — one shared base seed with trial
indices running across the whole (gap, weight) grid in order — is
preserved declaratively via the per-cell ``trial_start`` binding.
"""

from __future__ import annotations

from repro.analysis.stats import wilson_interval
from repro.analysis.tables import Table
from repro.api import Study, StudyResult, Sweep, expr, grid, nests_spec, ref, register_metric
from repro.experiments.common import Experiment, register


def _outcomes_metric(reports, stats) -> dict[str, float]:
    rounds = [r.converged_round for r in reports if r.converged]
    best_wins = sum(
        1 for r in reports if r.converged and r.chosen_nest == 1
    )
    # Historical estimator: the upper median of the agreed rounds.
    median = float(sorted(rounds)[len(rounds) // 2]) if rounds else float("nan")
    return {
        "n_agreed": len(rounds),
        "n_best_wins": best_wins,
        "median_rounds_agreed": median,
    }


register_metric("e10_outcomes", _outcomes_metric)


def study(
    quick: bool = False,
    base_seed: int = 0,
    n: int | None = None,
    gaps: tuple[float, ...] | None = None,
    weights: tuple[float, ...] | None = None,
    trials: int | None = None,
) -> Study:
    """The E10 sweep: quality gap x quality weight at k=2."""
    if n is None:
        n = 128 if quick else 256
    if gaps is None:
        gaps = (0.1, 0.4) if quick else (0.05, 0.1, 0.2, 0.4)
    if weights is None:
        weights = (1.0,) if quick else (0.0, 1.0, 2.0, 4.0)
    if trials is None:
        trials = 10 if quick else 60
    return Study(
        name="E10",
        description="Section 6 non-binary qualities: accuracy/speed grid",
        sweep=Sweep(
            base={
                "algorithm": "quality_weighted",
                "n": n,
                "nests": nests_spec(
                    "graded",
                    qualities=[
                        expr(0.5, gap=1),
                        expr(0.5, gap=-1),
                    ],
                ),
                "seed": base_seed,
                "max_rounds": 50_000,
                "params": {"quality_weight": ref("weight")},
                "criterion": "unanimous",
                # Preserve the historical stream assignment: one shared base
                # seed, trial indices running across the whole grid in order.
                "trial_start": expr(0, cell_index=trials, cast="int"),
            },
            axes=(grid("gap", gaps), grid("weight", weights)),
        ),
        trials=trials,
        metrics=("n_trials", "e10_outcomes"),
    )


def render(outcome: StudyResult) -> Table:
    """Accuracy and speed per (quality gap, quality weight)."""
    result = outcome.table
    n = outcome.cells[0].cell.scenario.n

    table = Table(
        f"E10  Non-binary qualities at n={n}, k=2: does the better nest win?",
        [
            "gap",
            "weight",
            "P(best wins)",
            "wilson 95% lo",
            "P(agreed)",
            "median rounds",
        ],
    )
    for row in result.rows():
        agreed = max(row["n_agreed"], 1)
        lo, _ = wilson_interval(row["n_best_wins"], agreed)
        table.add_row(
            row["gap"],
            row["weight"],
            row["n_best_wins"] / agreed,
            lo,
            row["n_agreed"] / row["n_trials"],
            row["median_rounds_agreed"],
        )
    table.add_note(
        "weight 0 removes quality from the *recruitment* rate but the "
        "stochastic acceptance (accept w.p. q) still tilts the initial "
        "active population toward the better nest, so accuracy starts near "
        "0.8, not 0.5; raising the weight pushes it to 1.0 at a measurable "
        "cost in rounds — the speed/accuracy trade-off of Pratt & Sumpter "
        "(2006) that Section 6 anticipates."
    )
    return table


EXPERIMENT = register(
    Experiment(
        id="E10",
        claim="Section 6: non-binary qualities",
        summary=(
            "Quality-weighted recruitment: P(best nest wins) and rounds across the\n"
            "(gap × weight) grid — the Pratt–Sumpter speed/accuracy dial."
        ),
        study=study,
        render=render,
    )
)
