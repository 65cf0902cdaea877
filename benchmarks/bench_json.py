"""Machine-readable benchmark records at the repo root.

``bench_api.py`` and ``bench_batch.py`` fold their trials/sec numbers into
``BENCH_api.json`` / ``BENCH_batch.json`` next to the repository's README.
The committed copies are the regression baseline:
``tools/check_bench_regression.py`` compares a fresh run against the
version at ``HEAD`` and fails on a >30% throughput drop — the quick-profile
CI step wires the two together.

Each file looks like::

    {
      "benchmark": "batch",
      "profile": "quick",
      "config": {"n": 4096, "k": 8, "trials": 16},
      "metrics": {"batch_trials_per_sec": 180.3, ...}
    }

Only ``metrics`` entries are compared; ``config``/``profile`` changes make
the checker skip the comparison instead of producing nonsense ratios, and
absolute throughput metrics (``*_per_sec``) are compared only when the
``machine`` fingerprint matches — ratios of two sides measured in one
session (e.g. ``warm_dedupe_ratio``) are machine-portable and are
always checked.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent


def machine_fingerprint() -> dict[str, Any]:
    """Coarse identity of the measuring machine.

    Absolute trials/sec are only comparable on matching hardware; ratio
    metrics (one run divided by another from the same session) travel.
    The regression checker uses this to decide which comparisons mean
    anything.
    """
    return {"cpu_count": os.cpu_count(), "arch": platform.machine()}


def bench_json_path(name: str) -> Path:
    """Repo-root path of one benchmark record (``BENCH_<name>.json``)."""
    return REPO_ROOT / f"BENCH_{name}.json"


def update_bench_json(
    name: str,
    profile: str,
    config: dict[str, Any],
    metrics: dict[str, float],
    machine_dependent: list[str] | None = None,
    conditional: list[str] | None = None,
) -> Path:
    """Merge ``metrics`` into ``BENCH_<name>.json`` (read-modify-write).

    Tests of one benchmark module each contribute their own metric keys;
    merging keeps the record complete however pytest slices the module.  A
    profile or config change resets the record rather than mixing numbers
    measured under different workloads.
    """
    path = bench_json_path(name)
    data: dict[str, Any] = {}
    if path.exists():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            data = {}
    machine = machine_fingerprint()
    if (
        data.get("profile") != profile
        or data.get("config") != config
        or data.get("machine") != machine
    ):
        data = {}
    merged = dict(data.get("metrics", {}))
    merged.update({key: round(float(value), 3) for key, value in metrics.items()})
    sensitive = sorted(
        set(data.get("machine_dependent", [])) | set(machine_dependent or [])
    )
    optional = sorted(
        set(data.get("conditional", [])) | set(conditional or [])
    )
    payload = {
        "benchmark": name,
        "profile": profile,
        "config": config,
        "machine": machine,
        "metrics": merged,
    }
    if sensitive:
        # Ratio metrics whose two sides scale differently with hardware
        # (e.g. a python-loop engine vs a vectorized one): the regression
        # checker compares them only on a matching machine fingerprint,
        # like the absolute *_per_sec metrics.
        payload["machine_dependent"] = sensitive
    if optional:
        # Metrics only some hosts can produce (e.g. the cext backend
        # row): the regression checker tolerates their absence from a
        # fresh run instead of treating a lost row as a lost capability.
        payload["conditional"] = optional
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
