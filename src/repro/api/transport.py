"""Worker-to-parent result transport: packed columns.

A batch chunk's reports used to travel back from worker processes as a
pickled ``list[RunReport]`` — one Python object graph per trial, with the
scenario identity fields duplicated into every report even though the
parent already holds the chunk's scenarios.  This module packs a chunk
into a handful of numpy columns (:func:`pack_reports`) that pickle as
flat buffers, and reconstructs bit-identical reports on the parent side
(:func:`unpack_reports`) from the columns plus the scenarios it already
has.  The packed dict is the one result format of the worker pool
(:func:`repro.api.run_batch`): a default 64-trial chunk at ``n = 4096``
pickles to about 7 KB, or about 400 KB with ``record_history``.

Everything here is invisible to the bits: ``unpack_reports(pack_reports(
reports), scenarios)`` reproduces every field exactly, pinned by the
golden-digest suite running across the pool boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.api.report import RunReport
from repro.fast.results import FastRunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.scenario import Scenario

#: Sentinel for ``None`` in the integer columns.
_NONE = -1


def pack_reports(reports: Sequence[RunReport]) -> dict[str, Any]:
    """Pack one homogeneous chunk's reports into columnar form.

    Scenario identity fields are dropped, and so is ``chose_good_nest``:
    every fast report is built by :meth:`RunReport.from_fast`, which
    derives it from the scenario and the chosen nest, so the parent
    rebuilds both from the scenarios it dispatched.  Arrays are stacked;
    ``extras`` dicts ride along as-is (for batch kernels they are tiny —
    the matcher tag, or the spread process's informed history).
    """
    n = len(reports)
    converged = np.fromiter(
        (r.converged for r in reports), dtype=np.bool_, count=n
    )
    converged_round = np.fromiter(
        (
            _NONE if r.converged_round is None else r.converged_round
            for r in reports
        ),
        dtype=np.int64,
        count=n,
    )
    rounds_executed = np.fromiter(
        (r.rounds_executed for r in reports), dtype=np.int64, count=n
    )
    chosen_nest = np.fromiter(
        (_NONE if r.chosen_nest is None else r.chosen_nest for r in reports),
        dtype=np.int64,
        count=n,
    )
    if all(r.final_counts is not None for r in reports):
        final_counts = np.stack(
            [np.asarray(r.final_counts, dtype=np.int64) for r in reports]
        )
    else:
        # Per-chunk algorithms either all report counts or none do.
        final_counts = None
    history_rows = history_splits = None
    if any(r.population_history is not None for r in reports):
        parts = [
            np.asarray(r.population_history, dtype=np.int64)
            for r in reports
        ]
        history_rows = np.concatenate(parts, axis=0)
        history_splits = np.cumsum(
            np.asarray([p.shape[0] for p in parts], dtype=np.int64)
        )[:-1]
    return {
        "n": n,
        "converged": converged,
        "converged_round": converged_round,
        "rounds_executed": rounds_executed,
        "chosen_nest": chosen_nest,
        "final_counts": final_counts,
        "history_rows": history_rows,
        "history_splits": history_splits,
        "extras": [dict(r.extras) for r in reports],
    }


def unpack_reports(
    packed: dict[str, Any], scenarios: Sequence["Scenario"]
) -> list[RunReport]:
    """Rebuild the chunk's reports, bit-identical to the direct path."""
    n = packed["n"]
    if n != len(scenarios):
        raise ValueError(
            f"packed chunk carries {n} reports for {len(scenarios)} scenarios"
        )
    histories: list[np.ndarray | None] = [None] * n
    if packed["history_rows"] is not None:
        histories = list(
            np.split(packed["history_rows"], packed["history_splits"])
        )
    final_counts = packed["final_counts"]
    reports = []
    for i, scenario in enumerate(scenarios):
        converged_round = int(packed["converged_round"][i])
        chosen = int(packed["chosen_nest"][i])
        result = FastRunResult(
            bool(packed["converged"][i]),
            None if converged_round == _NONE else converged_round,
            int(packed["rounds_executed"][i]),
            None if chosen == _NONE else chosen,
            None if final_counts is None else final_counts[i],
            histories[i],
        )
        reports.append(
            RunReport.from_fast(scenario, result, extras=packed["extras"][i])
        )
    return reports
