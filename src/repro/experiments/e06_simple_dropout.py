"""E6 — Lemmas 5.8/5.9: small nests stay small and empty out quickly.

Runs Algorithm 3 with population history and, for every nest that falls
below the smallness threshold ``n/(dk)`` (d = 64), measures

- whether it ever climbs back above the threshold (Lemma 5.8 says no,
  w.h.p., over an O(k log n) horizon), and
- how many rounds pass from first crossing to complete emptiness, compared
  to Lemma 5.9's ``64(c+4)·k·log n`` horizon (a deliberately loose bound).

The sweep is a Study; the per-cell lifetime extraction is the registered
``e6_dropout`` metric over the recorded histories.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import Table
from repro.analysis.theory import SECTION_5_D, simple_dropout_horizon, small_nest_threshold
from repro.api import Study, StudyResult, Sweep, cases, expr, nests_spec, register_metric, ref
from repro.experiments.common import Experiment, every_row_holds, register


def dropout_times(history: np.ndarray, threshold: float) -> tuple[list[int], int]:
    """(rounds from first sub-threshold crossing to emptiness, resurfacings).

    ``history`` is the fast engine's count matrix; only assessment rows
    (odd rounds: indices 0, 2, 4, ...) show ants at candidate nests, so the
    scan uses those.
    """
    assessment = history[::2]
    times: list[int] = []
    resurfaced = 0
    n_nests = history.shape[1] - 1
    for nest in range(1, n_nests + 1):
        series = assessment[:, nest]
        below = np.flatnonzero(series <= threshold)
        if len(below) == 0:
            continue  # this nest never became small (the winner, usually)
        first_below = below[0]
        if np.any(series[first_below:] > threshold):
            resurfaced += 1
        empty = np.flatnonzero(series[first_below:] == 0)
        if len(empty):
            times.append(int(empty[0]) * 2)  # rows are 2 rounds apart
    return times, resurfaced


def _dropout_metric(reports, stats) -> dict[str, float]:
    n = reports[0].n
    k = reports[0].k
    threshold = small_nest_threshold(n, k, SECTION_5_D)
    all_times: list[int] = []
    resurfacings = 0
    for report in reports:
        times, resurfaced = dropout_times(report.population_history, threshold)
        all_times.extend(times)
        resurfacings += resurfaced
    return {
        "crossings": len(all_times),
        "resurfaced": resurfacings,
        "median_rounds_to_empty": (
            float(np.median(all_times)) if all_times else float("nan")
        ),
        "max_rounds_to_empty": max(all_times) if all_times else 0,
    }


register_metric("e6_dropout", _dropout_metric)


def study(
    quick: bool = False,
    base_seed: int = 0,
    configs: tuple[tuple[int, int], ...] | None = None,
    trials: int | None = None,
) -> Study:
    """The E6 sweep: (n, k) configurations with recorded histories."""
    if configs is None:
        configs = ((512, 4),) if quick else ((512, 4), (2048, 8), (8192, 8), (8192, 16))
    if trials is None:
        trials = 10 if quick else 40
    return Study(
        name="E6",
        description="Lemmas 5.8/5.9: sub-threshold nest lifetimes",
        sweep=Sweep(
            base={
                "algorithm": "simple",
                "nests": nests_spec("all_good", k=ref("k")),
                "seed": expr(base_seed, n=13, k=1, cast="int"),
                "max_rounds": 100_000,
                "record_history": True,
            },
            axes=(cases(*({"n": n, "k": k} for n, k in configs)),),
        ),
        # backend="auto" resolves to the batch kernel (histories are a
        # declared fast feature); pinning "fast" would add nothing.
        trials=trials,
        metrics=("e6_dropout",),
    )


def render(outcome: StudyResult) -> Table:
    """Sub-threshold nest lifetimes across (n, k)."""
    result = outcome.table

    table = Table(
        "E6  Small-nest extinction (Lemmas 5.8/5.9): threshold n/(64k)",
        [
            "n",
            "k",
            "threshold",
            "nests crossed",
            "resurfaced",
            "median rounds to empty",
            "max",
            "theory horizon",
            "within horizon",
        ],
    )
    for row in result.rows():
        n, k = row["n"], row["k"]
        horizon = simple_dropout_horizon(n, k, c=1.0)
        table.add_row(
            n,
            k,
            small_nest_threshold(n, k, SECTION_5_D),
            row["crossings"],
            row["resurfaced"],
            row["median_rounds_to_empty"],
            row["max_rounds_to_empty"],
            horizon,
            row["max_rounds_to_empty"] <= horizon,
        )
    table.add_note(
        "Lemma 5.8 predicts no resurfacing above n/(dk) w.h.p.; Lemma 5.9 "
        "bounds the time from crossing to emptiness by 64(c+4)k·ln n — "
        "measured extinctions are orders of magnitude faster (the bound is "
        "loose by design)."
    )
    return table


EXPERIMENT = register(
    Experiment(
        id="E6",
        claim="Lemmas 5.8/5.9: small nests stay small and empty out",
        summary=(
            "Nests falling below `n/(64k)`: resurfacing count (should be ~0) and rounds\n"
            "to extinction vs the (deliberately loose) theory horizon."
        ),
        study=study,
        render=render,
        check=every_row_holds,
    )
)
