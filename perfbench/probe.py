"""Set-up probe: get a fresh process ready for a workload, then say so.

Usage: ``python perfbench/probe.py <reproduce_quick|kernel_sweep>``

Imports the package (which fills the algorithm, metric and study
registries), resolves and loads the batch-kernel backend (the compiled C
extension comes from its build cache), and for ``kernel_sweep`` forks the
two-process worker pool and waits until both workers have answered.  It
then prints ``ready``; ``run.py`` times process start until that line.
"""

from __future__ import annotations

import sys

import repro.experiments  # noqa: F401  (registers every study and metric)
from repro.fast.backends import resolve_backend
from workloads import SWEEP_WORKERS, warm_pool


def main(workload: str) -> int:
    resolve_backend()
    pool = warm_pool(SWEEP_WORKERS) if workload == "kernel_sweep" else None
    print("ready", flush=True)
    if pool is not None:
        pool.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
