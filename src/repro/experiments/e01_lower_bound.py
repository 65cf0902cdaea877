"""E1 — Theorem 3.2: any algorithm needs Ω(log n) rounds.

Measures the completion time of the *best-case* information-spreading
process (informed ants push the winning nest's id at the maximum rate the
model allows) as ``n`` grows, for both ignorant-ant policies, and fits
growth models.  The reproduction holds if (a) completion time grows
logarithmically (the log model wins the fit comparison), and (b) every
measured completion time exceeds the theorem's threshold
``(log₄ n)/2 − log₄ 12`` — i.e. not even the best-case process beats the
lower bound.  The classic push-gossip process is shown alongside as the
reference the paper's proof parallels.

The workload is one :class:`~repro.api.Study`: an ``n`` grid crossed with
three process variants (wait-policy spread, mixed-policy spread, push
gossip), each variant keeping its historical per-cell seed stream.
"""

from __future__ import annotations

from repro.analysis.scaling import fit_models, linear_model, log_model, sqrt_model
from repro.analysis.tables import Table
from repro.analysis.theory import lower_bound_rounds
from repro.api import Study, StudyResult, Sweep, cases, expr, grid, nests_spec
from repro.core.lower_bound import IgnorantPolicy
from repro.experiments.common import Experiment, every_row_holds, register


def study(
    quick: bool = False,
    base_seed: int = 0,
    k: int = 8,
    sizes: tuple[int, ...] | None = None,
    trials: int | None = None,
) -> Study:
    """The E1 sweep: n grid x {wait, mixed, gossip}, historical seeds."""
    if sizes is None:
        sizes = (128, 256, 512, 1024) if quick else (128, 256, 512, 1024, 2048, 4096, 8192, 16384)
    if trials is None:
        trials = 10 if quick else 40
    variants = cases(
        {
            "variant": "wait",
            "algorithm": "spread",
            "params": {"policy": IgnorantPolicy.WAIT.value},
            "seed_offset": 0,
        },
        {
            "variant": "mixed",
            "algorithm": "spread",
            "params": {"policy": IgnorantPolicy.MIXED.value},
            "seed_offset": 500_009,
        },
        {"variant": "gossip", "algorithm": "rumor", "seed_offset": 1_000_003},
    )
    return Study(
        name="E1",
        description="Theorem 3.2 lower bound: best-case spread time vs n",
        sweep=Sweep(
            base={
                "nests": nests_spec("single_good", k=k, good_nest=1),
                "seed": expr(base_seed, n=1, seed_offset=1, cast="int"),
            },
            axes=(grid("n", sizes), variants),
        ),
        trials=trials,
        metrics=("median_rounds_all", "min_rounds_all"),
    )


def render(outcome: StudyResult) -> Table:
    """Spread completion rounds per ``n`` vs the theory threshold."""
    result = outcome.table
    k = outcome.cells[0].cell.scenario.nests.k

    table = Table(
        f"E1  Lower bound (Theorem 3.2): best-case spread time, k={k}",
        [
            "n",
            "median rounds (wait)",
            "median rounds (mixed)",
            "push gossip",
            "theory threshold",
            "min observed",
            "above threshold",
        ],
    )
    swept_sizes = [key[0] for key, _ in result.group_by("n")]
    medians_wait: list[float] = []
    for n in swept_sizes:
        wait_median = result.value("median_rounds_all", n=n, variant="wait")
        mixed_median = result.value("median_rounds_all", n=n, variant="mixed")
        gossip_median = result.value("median_rounds_all", n=n, variant="gossip")
        minimum = min(
            result.value("min_rounds_all", n=n, variant="wait"),
            result.value("min_rounds_all", n=n, variant="mixed"),
        )
        threshold = lower_bound_rounds(n, c=1.0)
        medians_wait.append(wait_median)
        table.add_row(
            n,
            wait_median,
            mixed_median,
            gossip_median,
            threshold,
            minimum,
            minimum > threshold,
        )

    if len(swept_sizes) >= 3:
        fits = fit_models(
            [log_model(), linear_model(), sqrt_model()], swept_sizes, medians_wait
        )
        table.add_note(f"best growth model for wait-policy medians: {fits[0]}")
        table.add_note(f"runner-up: {fits[1]}")
    table.add_note(
        "theory threshold is (log4 n)/2 - log4(12) with c=1; Theorem 3.2 "
        "guarantees >= 6*sqrt(n) ignorant ants remain at that round w.h.p."
    )
    return table


EXPERIMENT = register(
    Experiment(
        id="E1",
        claim="Theorem 3.2: any algorithm needs Ω(log n) rounds",
        summary=(
            "Best-case information spreading (informed ants push at the maximal rate the\n"
            "model allows) vs the theorem's threshold `(log₄ n)/2 − log₄ 12`.  The\n"
            "reproduction holds if the log-growth model wins the fit and no measured\n"
            "completion time beats the threshold."
        ),
        study=study,
        render=render,
        check=every_row_holds,
    )
)
