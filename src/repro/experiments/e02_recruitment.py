"""E2 — Lemma 2.1: an active recruiter succeeds with probability ≥ 1/16.

Runs the recruitment pairing process (Algorithm 1) over a grid of
home-nest sizes and active-recruiter fractions via the registered
``tagged_recruitment`` measurement process (one trial = one pairing round,
success = the tagged ant recruited *another* ant — see
:mod:`repro.api.processes`).  The lemma asserts ≥ 1/16 whenever the home
nest holds ≥ 2 ants, *regardless* of what everyone else does, so the
reproduction check is that the Wilson lower confidence bound of every grid
cell clears 1/16.

Since the Sweep/Study port every grid cell draws from its own seeded trial
streams (seed ``base + 1000·m + 100·fraction``) instead of one shared
sequential generator, so cells are independently reproducible and
cacheable; the estimates are statistically unchanged.
"""

from __future__ import annotations

from repro.analysis.stats import wilson_interval
from repro.analysis.tables import Table
from repro.analysis.theory import LEMMA_2_1_SUCCESS_LOWER_BOUND
from repro.api import Study, StudyResult, Sweep, expr, grid, nests_spec, ref
from repro.experiments.common import Experiment, every_row_holds, register


def study(
    quick: bool = False,
    base_seed: int = 0,
    sizes: tuple[int, ...] | None = None,
    fractions: tuple[float, ...] = (0.1, 0.5, 1.0),
    trials: int | None = None,
) -> Study:
    """The E2 sweep: (home population, active fraction) sampling grid."""
    if sizes is None:
        sizes = (2, 4, 16, 64) if quick else (2, 4, 8, 16, 64, 256, 1024)
    if trials is None:
        trials = 400 if quick else 4000
    return Study(
        name="E2",
        description="Lemma 2.1: tagged-recruiter success probability grid",
        sweep=Sweep(
            base={
                "algorithm": "tagged_recruitment",
                "nests": nests_spec("all_good", k=1),
                "params": {"active_fraction": ref("active_fraction")},
                "seed": expr(base_seed, n=1000, active_fraction=100, cast="int"),
            },
            axes=(grid("n", sizes), grid("active_fraction", fractions)),
        ),
        trials=trials,
        metrics=("n_trials", "n_converged"),
    )


def render(outcome: StudyResult) -> Table:
    """Per (home population, recruiting fraction) cell: the 1/16 bound."""
    result = outcome.table

    table = Table(
        "E2  Recruitment success (Lemma 2.1): tagged recruiter, bound 1/16",
        [
            "home ants",
            "active frac",
            "P(success)",
            "wilson 95% lo",
            "bound",
            "holds",
        ],
    )
    worst = 1.0
    for row in result.rows():
        p_hat = row["n_converged"] / row["n_trials"]
        lo, _ = wilson_interval(row["n_converged"], row["n_trials"])
        worst = min(worst, p_hat)
        table.add_row(
            row["n"],
            row["active_fraction"],
            p_hat,
            lo,
            LEMMA_2_1_SUCCESS_LOWER_BOUND,
            lo >= LEMMA_2_1_SUCCESS_LOWER_BOUND,
        )
    table.add_note(
        f"worst observed success probability {worst:.4f} vs bound "
        f"{LEMMA_2_1_SUCCESS_LOWER_BOUND:.4f} (the paper's 1/16 is loose; "
        "the true worst case is ~0.25 when everyone recruits)"
    )
    return table


EXPERIMENT = register(
    Experiment(
        id="E2",
        claim="Lemma 2.1: a recruiter succeeds with probability ≥ 1/16",
        summary=(
            "Tagged-recruiter success over a (home population × active fraction) grid;\n"
            "the Wilson 95% lower bound must clear 1/16 in every cell."
        ),
        study=study,
        render=render,
        check=every_row_holds,
    )
)
