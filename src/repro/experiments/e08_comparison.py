"""E8 — head-to-head: Optimal vs Simple vs quorum vs the feedback ablation.

The paper proves Algorithm 2 ∈ O(log n) and Algorithm 3 ∈ O(k log n); the
implicit comparison — who wins, by how much, and what happens without
positive feedback — is measured here on a common grid:

- **Optimal** (Algorithm 2) and **Simple** (Algorithm 3) via the fast
  engine;
- **Quorum** (the Pratt-style natural strategy) and **Uniform** (Simple
  with constant recruit probability — the ablation) via auto dispatch;
- **push gossip** rounds shown as the information-theoretic reference.

Expected shape: Optimal < Simple, with the gap growing with k; Uniform far
behind (no swamping); Quorum in between, occasionally splitting the colony.

One Study: a ``k`` grid crossed with five per-strategy cases, each keeping
its historical seed, trial count, engine and round cap.
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.api import Study, StudyResult, Sweep, cases
from repro.experiments.common import Experiment, register


def study(
    quick: bool = False,
    base_seed: int = 0,
    n: int | None = None,
    k_values: tuple[int, ...] | None = None,
    trials: int | None = None,
    agent_trials: int | None = None,
    uniform_max_rounds: int | None = None,
) -> Study:
    """The E8 sweep: k grid x five strategies on a shared workload."""
    if n is None:
        n = 128 if quick else 512
    if k_values is None:
        k_values = (4,) if quick else (4, 8, 16)
    if trials is None:
        trials = 10 if quick else 40
    if agent_trials is None:
        agent_trials = 5 if quick else 15
    if uniform_max_rounds is None:
        uniform_max_rounds = 4_000 if quick else 8_000

    strategy_cases = []
    for k in k_values:
        strategy_cases.extend(
            [
                {
                    "k": k,
                    "strategy": "Optimal (Alg. 2)",
                    "note": "O(log n)",
                    "kind": "fast",
                    "algorithm": "optimal",
                    "seed": base_seed + k,
                    "max_rounds": 50_000,
                    "backend": "fast",
                    "trials": trials,
                },
                {
                    "k": k,
                    "strategy": "Simple (Alg. 3)",
                    "note": "O(k log n)",
                    "kind": "fast",
                    "algorithm": "simple",
                    "seed": base_seed + k,
                    "max_rounds": 50_000,
                    "backend": "fast",
                    "trials": trials,
                },
                {
                    "k": k,
                    "strategy": "Quorum (Pratt-style)",
                    "note": "natural baseline",
                    "kind": "stats",
                    "algorithm": "quorum",
                    "seed": base_seed + 31 * k,
                    "max_rounds": uniform_max_rounds,
                    "params": {"quorum_fraction": max(0.35, 1.5 / k)},
                    "criterion": "unanimous",
                    "trials": agent_trials,
                },
                {
                    "k": k,
                    "strategy": "Uniform (ablation)",
                    "note": "no positive feedback",
                    "kind": "stats",
                    "algorithm": "uniform",
                    "seed": base_seed + 77 * k,
                    "max_rounds": uniform_max_rounds,
                    "params": {"recruit_probability": 0.5},
                    "trials": agent_trials,
                },
                {
                    "k": k,
                    "strategy": "push gossip (ref.)",
                    "note": "information only",
                    "kind": "gossip",
                    "algorithm": "rumor",
                    "seed": base_seed + k,
                    "trials": trials,
                },
            ]
        )
    return Study(
        name="E8",
        description=f"Strategy comparison at fixed n: five strategies per k",
        sweep=Sweep(
            base={"n": n, "nests": {"$nests": {"factory": "all_good", "k": {"$ref": "k"}}}},
            axes=(cases(*strategy_cases),),
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
    """All strategies at fixed n across k."""
    result = outcome.table
    n = outcome.cells[0].cell.scenario.n
    uniform_max_rounds = next(
        cell_result.cell.scenario.max_rounds
        for cell_result in outcome.cells
        if cell_result.cell.scenario.algorithm == "uniform"
    )

    table = Table(
        f"E8  Strategy comparison at n={n}: median rounds and success",
        ["k", "strategy", "median rounds", "success", "notes"],
    )
    for row in result.rows():
        if row["kind"] == "fast":
            median, success = (
                row["median_rounds_converged"],
                row["success_rate_converged"],
            )
        elif row["kind"] == "stats":
            median, success = row["median_rounds"], row["success_rate"]
        else:  # the gossip reference completes; "success" is not its notion
            median, success = row["median_rounds_converged"], 1.0
        table.add_row(row["k"], row["strategy"], median, success, row["note"])

    table.add_note(
        "success for Uniform counts runs converged within the round cap "
        f"({uniform_max_rounds}); its failures are timeouts, demonstrating "
        "that population-proportional recruitment is what makes Algorithm 3 "
        "fast."
    )
    return table


EXPERIMENT = register(
    Experiment(
        id="E8",
        claim="head-to-head: Optimal vs Simple vs quorum vs the ablation",
        summary=(
            "The implicit comparison on a common grid, with push gossip as the\n"
            "information-theoretic floor.  Uniform's failures are timeouts:\n"
            "population-proportional feedback is what makes Algorithm 3 fast."
        ),
        study=study,
        render=render,
    )
)
