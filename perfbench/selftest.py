"""Self-test of the benchmark: every workload at a tiny size, both modes.

Usage (from the root of a checkout): ``python3 perfbench/selftest.py``

For each workload and ``--trace 0``/``1`` it runs ``run.py --tiny`` and
asserts that the run exits 0, that its last line is the result object
with exactly the contract's keys, that every metric ``BENCHMARK.json``
names for that mode is emitted with its declared unit and nothing else,
that the workload's correctness checks ran and passed, and that the
result is correct.  On the traced runs it asserts that every per-layer
metric of :data:`NONZERO` reads above 0, and that the sweep's chunk count
and pool share are the ones the batching policy gives.  It also checks
that ``run.py`` refuses to run, without printing a result, where there is
no program source.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import pin_environment
from workloads import TINY_RUNNERS, kernel_study

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Check-name fragments each workload must print as ``check: ok: ...``.
EXPECTED_CHECKS = {
    "reproduce_quick": ("equals committed output in every pass",),
    "kernel_sweep": ("tables identical across passes", "the workers=1 rows"),
    "service_mix": ("equals an in-process run_study",),
}

#: Per-layer metrics that must read above 0 on each workload's tiny traced
#: run: those the layer map in README.md assigns to the workload, less what
#: the tiny size leaves out (the Pólya urns and the studies other than
#: :data:`TINY_RUNNERS`) and less the contention counters
#: ``store.busy_retries`` and ``dedupe.waits``, which a correct run may
#: leave at 0.
NONZERO = {
    "reproduce_quick": (
        *(f"study.{eid}_s" for eid in TINY_RUNNERS),
        "render.s", "baseline.rumor_s", "agent.s", "agent.trials",
        "processes.s", "processes.trials", "sweep.expand_s", "sweep.cells",
        "sweep.evaluate_metrics_s", "fold.s", "aggregate.s",
        "self.experiments_s", "self.render_s", "self.sweep_s", "self.scheduler_s",
        "self.baseline_s", "self.agent_s", "self.processes_s",
    ),
    "kernel_sweep": (
        "runner.run_batch_s", "runner.calls", "runner.chunks",
        "runner.parallel_chunk_ratio", "transport.unpack_s", "transport.bytes",
        "kernel.draw_s", "kernel.match_s", "kernel.move_s", "kernel.bookkeep_s",
        "kernel.compact_s", "kernel.rounds", "kernel.batches", "kernel.simple_s",
        "kernel.simple_perturbed_s", "kernel.optimal_s", "kernel.quorum_s",
        "self.runner_s", "self.transport_s", "self.kernel_s",
    ),
    "service_mix": (
        "sweep.expand_s", "sweep.cells", "fold.s", "aggregate.s",
        "cache.load_s", "cache.loads", "cache.hit_ratio", "cache.store_s",
        "cache.stores", "service.run_s", "service.overhead_s", "service.jobs",
        "self.cache_s", "self.dedupe_s", "self.service_s",
    ),
}


def sweep_chunks() -> tuple[int, int]:
    """Chunks of the tiny kernel_sweep study, and how many reach the pool.

    A cell's trials split into ``default_batch_chunk`` chunks; a cell of
    one chunk runs in the parent, and every chunk of a longer cell goes to
    the pool.
    """
    from repro.api import default_batch_chunk

    study = kernel_study(0, tiny=True)
    (axis,) = study.sweep.axes
    per_cell = [
        -(-row.get("trials", study.trials) // default_batch_chunk(row["n"]))
        for row in axis["cases"]
    ]
    return sum(per_cell), sum(count for count in per_cell if count > 1)


def run(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def check_workload(spec: dict, workload: str, trace: int) -> None:
    done = run(
        ["perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        ROOT,
    )
    where = f"{workload} --trace {trace}"
    assert done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct\n{done.stdout}"
    assert result["attempted"] >= 1 and result["failed"] == 0, where
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    emitted = result["metrics"]
    assert set(emitted) == set(units), (
        f"{where}: missing {sorted(set(units) - set(emitted))}, "
        f"extra {sorted(set(emitted) - set(units))}"
    )
    for name, unit in units.items():
        assert emitted[name]["unit"] == unit, f"{where}: {name} unit"
        assert isinstance(emitted[name]["value"], (int, float)), f"{where}: {name}"
        assert any(line.startswith(f"{name} = ") for line in lines), f"{where}: {name} line"
    for name in units if not trace else NONZERO[workload]:
        assert emitted[name]["value"] > 0, f"{where}: {name} is not positive"
    if trace and workload == "kernel_sweep":
        chunks, pooled = sweep_chunks()
        assert emitted["runner.chunks"]["value"] == chunks, f"{where}: runner.chunks"
        ratio = emitted["runner.parallel_chunk_ratio"]["value"]
        assert math.isclose(ratio, pooled / chunks), f"{where}: parallel_chunk_ratio"
    checks = [line for line in lines if line.startswith("check: ")]
    assert checks and all(line.startswith("check: ok: ") for line in checks), where
    for fragment in EXPECTED_CHECKS[workload]:
        assert any(fragment in line for line in checks), f"{where}: no '{fragment}' check"
    assert any(line.startswith("failed_ratio = ") for line in lines), where
    assert any(line.startswith("provenance: ") for line in lines), where
    print(f"ok: {where} ({len(emitted)} metrics, {len(checks)} checks)")


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run(
            ["perfbench/run.py", "--workload", "reproduce_quick", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            bare,
        )
    assert done.returncode != 0, "ran without a program"
    assert '"metrics"' not in done.stdout, "printed a result without a program"
    print("ok: refuses to run without src/")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pin_environment()  # the chunk policy reads the tile width from it
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    check_refuses_without_source()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
