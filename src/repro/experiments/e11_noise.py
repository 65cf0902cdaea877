"""E11 — Section 6 "Approximate counting": tolerance to measurement noise.

Runs Algorithm 3 under increasingly noisy population readings, in two
flavors within one Study:

- parametric unbiased Gaussian noise (relative σ sweep);
- the mechanistic encounter-rate estimator (Pratt 2005), sweeping the
  sampling budget (fewer encounter trials = noisier).

Both flavors ride the trial-parallel batch engine under ``backend="auto"``
since the perturbation-aware kernels — the encounter rows historically ran
on the agent engine at a reduced ``n``, and now sweep the same colony size
and trial count as the Gaussian rows.

The paper conjectures that unbiased estimators preserve correctness "perhaps
with some runtime cost dependent on estimator variance" — the table
measures exactly that curve.
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.api import Study, StudyResult, Sweep, cases, nests_spec
from repro.experiments.common import Experiment, register


def study(
    quick: bool = False,
    base_seed: int = 0,
    n: int | None = None,
    k: int = 4,
    sigmas: tuple[float, ...] | None = None,
    encounter_trials: tuple[int, ...] | None = None,
    trials: int | None = None,
) -> Study:
    """The E11 sweep: Gaussian σ rows + encounter-budget rows, both batched."""
    if n is None:
        n = 256 if quick else 1024
    if sigmas is None:
        sigmas = (0.0, 0.5) if quick else (0.0, 0.25, 0.5, 1.0, 2.0)
    if encounter_trials is None:
        encounter_trials = (16,) if quick else (8, 32, 128)
    if trials is None:
        trials = 10 if quick else 40

    rows = [
        {
            "model": "gaussian relative",
            "level": sigma,
            "n": n,
            "seed": base_seed + int(sigma * 100),
            "noise": {"kind": "count", "relative_sigma": sigma},
            "trials": trials,
        }
        for sigma in sigmas
    ] + [
        {
            "model": "encounter-rate",
            "level": f"{budget} samples",
            "n": n,
            "seed": base_seed + budget,
            "noise": {"kind": "encounter", "trials": budget, "capacity": 2 * n},
            "trials": trials,
        }
        for budget in encounter_trials
    ]
    return Study(
        name="E11",
        description="Section 6 approximate counting: noise tolerance curve",
        sweep=Sweep(
            base={
                "algorithm": "simple",
                "nests": nests_spec("all_good", k=k),
                "max_rounds": 100_000,
            },
            axes=(cases(*rows),),
        ),
        trials=trials,
        metrics=(
            "success_rate",
            "median_rounds",
            "success_rate_converged",
            "median_rounds_converged",
        ),
    )


def render(outcome: StudyResult) -> Table:
    """Noise sweep: Gaussian and encounter-rate, both on the batch engine."""
    result = outcome.table
    scenario = outcome.cells[0].cell.scenario
    n, k = scenario.n, scenario.nests.k

    table = Table(
        f"E11  Noisy counting at n={n}, k={k} (Algorithm 3)",
        ["noise model", "level", "median rounds", "success"],
    )
    for row in result.rows():
        table.add_row(
            row["model"],
            row["level"],
            row["median_rounds_converged"],
            row["success_rate_converged"],
        )
    table.add_note(
        "unbiased noise leaves success at 1 and costs rounds roughly "
        "monotonically in the noise level — the Section 6 conjecture."
    )
    return table


EXPERIMENT = register(
    Experiment(
        id="E11",
        claim="Section 6: noisy counting",
        summary=(
            "Gaussian and mechanistic encounter-rate noise sweeps (both on the batch\n"
            "engine since the vectorized perturbation layers): unbiased noise keeps\n"
            "success at 1 and costs rounds monotonically."
        ),
        study=study,
        render=render,
    )
)
