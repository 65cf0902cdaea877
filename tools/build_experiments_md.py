"""Write EXPERIMENTS.md from the experiment records and the bench tables.

EXPERIMENTS.md is the preamble in ``tools/EXPERIMENTS.template.md``
followed by one section per :data:`repro.experiments.EXPERIMENTS` record:
its id and ``claim`` as the heading, its ``summary``, and its table from
``benchmarks/output/<id>.txt``, fenced.  Run after the benches wrote the
tables:

    pytest benchmarks/bench_experiments.py --benchmark-only
    python tools/build_experiments_md.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEMPLATE = ROOT / "tools" / "EXPERIMENTS.template.md"
OUTPUT_DIR = ROOT / "benchmarks" / "output"
TARGET = ROOT / "EXPERIMENTS.md"


def table_block(experiment_id: str) -> str:
    path = OUTPUT_DIR / f"{experiment_id}.txt"
    if not path.is_file():
        return f"*(table {experiment_id} not yet generated — run the benches)*"
    return "```text\n" + path.read_text(encoding="utf-8").rstrip() + "\n```"


def build() -> str:
    """EXPERIMENTS.md's text: the preamble, then one section per record."""
    from repro.experiments import EXPERIMENTS

    text = TEMPLATE.read_text(encoding="utf-8")
    for experiment in EXPERIMENTS.values():
        text += (
            f"\n## {experiment.id} — {experiment.claim}\n\n"
            f"{experiment.summary}\n\n{table_block(experiment.id)}\n"
        )
    return text


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments import EXPERIMENTS

    TARGET.write_text(build(), encoding="utf-8")
    missing = [eid for eid in EXPERIMENTS if not (OUTPUT_DIR / f"{eid}.txt").is_file()]
    if missing:
        print(f"WARNING: missing tables for {', '.join(missing)}", file=sys.stderr)
    print(f"wrote {TARGET}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
