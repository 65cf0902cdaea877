"""E7 — Theorem 5.11: Algorithm 3 solves HouseHunting in O(k log n) w.h.p.

Two sweep segments in one Study (the fast engine throughout):

- ``n`` at fixed ``k``: rounds should fit ``a + b·log n``;
- ``k`` at fixed ``n``: rounds should grow ≈ linearly in ``k`` (the linear
  model should beat the log model decisively — this is the O(k) factor that
  separates Algorithm 3 from Algorithm 2).

A joint ``(k, n)`` grid is then fit against ``a + b·k·log n``.
"""

from __future__ import annotations

from repro.analysis.scaling import (
    fit_model,
    fit_models,
    klogn_model,
    linear_model,
    log_model,
    sqrt_model,
)
from repro.analysis.tables import Table
from repro.analysis.theory import simple_k_bound
from repro.api import Study, StudyResult, Sweep, cases, nests_spec, ref
from repro.experiments.common import Experiment, register, success_is_one


def study(
    quick: bool = False,
    base_seed: int = 0,
    k_fixed: int = 4,
    n_fixed: int | None = None,
    sizes: tuple[int, ...] | None = None,
    k_values: tuple[int, ...] | None = None,
    trials: int | None = None,
) -> Study:
    """The E7 sweep: an n-segment and a k-segment, historical seeds."""
    if sizes is None:
        sizes = (128, 256, 512, 1024) if quick else (128, 256, 512, 1024, 2048, 4096, 8192, 16384)
    if k_values is None:
        k_values = (2, 4, 8) if quick else (2, 4, 8, 16, 32, 48)
    if n_fixed is None:
        n_fixed = 1024 if quick else 4096
    if trials is None:
        trials = 10 if quick else 40
    cells = [
        {"sweep": "n", "n": n, "k": k_fixed, "seed": base_seed + n} for n in sizes
    ] + [
        {"sweep": "k", "n": n_fixed, "k": k, "seed": base_seed + 104729 * k}
        for k in k_values
    ]
    return Study(
        name="E7",
        description="Theorem 5.11: Algorithm 3 rounds-to-unanimity scaling",
        sweep=Sweep(
            base={
                "algorithm": "simple",
                "nests": nests_spec("all_good", k=ref("k")),
                "max_rounds": 100_000,
            },
            axes=(cases(*cells),),
        ),
        trials=trials,
        backend="fast",
        metrics=("median_rounds_converged", "success_rate_converged"),
    )


def render(outcome: StudyResult) -> Table:
    """n-sweep, k-sweep, and a joint k·log n fit for Algorithm 3."""
    result = outcome.table

    table = Table(
        "E7  Algorithm 3 scaling (Theorem 5.11): rounds to unanimity",
        ["sweep", "n", "k", "median rounds", "success", "k bound (c=1)"],
    )
    for row in result.rows():
        table.add_row(
            row["sweep"],
            row["n"],
            row["k"],
            row["median_rounds_converged"],
            row["success_rate_converged"],
            simple_k_bound(row["n"]),
        )

    n_segment = result.select(sweep="n")
    k_segment = result.select(sweep="k")
    swept_sizes = [int(v) for v in n_segment["n"]]
    swept_k = [int(v) for v in k_segment["k"]]
    n_medians = [float(v) for v in n_segment["median_rounds_converged"]]
    k_medians = [float(v) for v in k_segment["median_rounds_converged"]]

    n_fits = fit_models(
        [log_model(), linear_model(), sqrt_model()], swept_sizes, n_medians
    )
    table.add_note(f"n-sweep best model: {n_fits[0]}")
    k_fits = fit_models([linear_model(), log_model()], swept_k, k_medians)
    table.add_note(f"k-sweep best model: {k_fits[0]}")
    table.add_note(f"k-sweep runner-up:  {k_fits[1]}")

    # Joint fit on the k-sweep points (n fixed) plus the n-sweep points.
    k_fixed_value = int(n_segment["k"][0])
    n_fixed_value = int(k_segment["n"][0])
    joint_k = swept_k + [k_fixed_value] * len(swept_sizes)
    joint_n = [n_fixed_value] * len(swept_k) + swept_sizes
    joint_y = k_medians + n_medians
    joint = fit_model(klogn_model(joint_n), joint_k, joint_y)
    table.add_note(f"joint (k, n) fit: {joint}")
    table.add_note(
        "Theorem 5.11 predicts O(k log n) for k <= sqrt(n)/(8 d^2 (c+6) ln n); "
        "the sweep deliberately exceeds that very conservative bound and the "
        "algorithm still converges (the paper hoped the bound removable)."
    )
    return table


EXPERIMENT = register(
    Experiment(
        id="E7",
        claim="Theorem 5.11: Algorithm 3 solves HouseHunting in O(k log n)",
        summary=(
            "n-sweep, k-sweep, and the joint `a + b·k·log n` fit; the k-sweep must be\n"
            "decisively linear (the O(k) factor separating Algorithm 3 from 2)."
        ),
        study=study,
        render=render,
        check=success_is_one,
    )
)
