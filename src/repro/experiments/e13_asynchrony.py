"""E13 — Section 6 "Asynchrony": tolerance to per-ant delays.

Runs Algorithm 3 with each ant independently stalling (holding position,
deferring its intended action) with probability ``p`` per round — the
partial-synchrony perturbation of :mod:`repro.sim.asynchrony`.  The paper
conjectures the algorithm extends to partially synchronous executions "as
long as the distribution of ants in candidate nests throughout time stays
close to the distribution in the synchronous model, potentially at the cost
of some extra running time"; the sweep measures that cost curve.

One Study: a zip axis pairing each display delay probability with its
delay-model field (``None`` for the synchronous baseline row).
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.api import Study, StudyResult, Sweep, expr, nests_spec, zipped
from repro.experiments.common import Experiment, register


def study(
    quick: bool = False,
    base_seed: int = 0,
    n: int | None = None,
    k: int = 4,
    delays: tuple[float, ...] | None = None,
    trials: int | None = None,
) -> Study:
    """The E13 sweep: delay probabilities (batch-kernel delay masks)."""
    if n is None:
        n = 128 if quick else 256
    if delays is None:
        delays = (0.0, 0.3) if quick else (0.0, 0.1, 0.2, 0.3, 0.5)
    # The batch path affords double the trials the agent sweep used to.
    if trials is None:
        trials = 5 if quick else 50
    rows = [
        [delay, None if delay == 0 else {"delay_probability": delay}]
        for delay in delays
    ]
    return Study(
        name="E13",
        description="Section 6 asynchrony: per-ant delay tolerance curve",
        sweep=Sweep(
            base={
                "algorithm": "simple",
                "n": n,
                "nests": nests_spec("all_good", k=k),
                "seed": expr(base_seed, delay=100, cast="int"),
                "max_rounds": 100_000,
            },
            axes=(zipped(("delay", "delay_model"), rows),),
        ),
        # backend="auto": the delay model is a declared fast feature since
        # the perturbation-aware batch kernels, so the sweep rides the
        # trial-parallel engine (the delay masks mirror sim/asynchrony.py).
        trials=trials,
        metrics=("success_rate", "median_rounds"),
    )


def render(outcome: StudyResult) -> Table:
    """Delay-probability sweep for Algorithm 3."""
    result = outcome.table
    scenario = outcome.cells[0].cell.scenario
    n, k = scenario.n, scenario.nests.k

    table = Table(
        f"E13  Partial asynchrony at n={n}, k={k} (Algorithm 3)",
        ["delay prob", "median rounds", "success", "slowdown vs sync"],
    )
    baseline: float | None = None
    for row in result.rows():
        if baseline is None:
            baseline = row["median_rounds"]
        slowdown = row["median_rounds"] / baseline if baseline else float("nan")
        table.add_row(
            row["delay"], row["median_rounds"], row["success_rate"], slowdown
        )
    table.add_note(
        "a stalled ant holds position and acts on stale counts when it "
        "resumes; success stays at 1 while rounds grow smoothly with the "
        "delay rate — the Section 6 conjecture."
    )
    return table


EXPERIMENT = register(
    Experiment(
        id="E13",
        claim="Section 6: partial asynchrony",
        summary="Per-ant stall-probability sweep: success stays at 1, rounds grow smoothly.",
        study=study,
        render=render,
    )
)
