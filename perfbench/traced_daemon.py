"""The study-service daemon with the benchmark's tracer installed.

Usage: ``python perfbench/traced_daemon.py <spans.json> serve [serve flags]``

Runs ``python -m repro.service`` with the layer wrappers of
:mod:`tracing` and a kernel phase profile around it, and writes the spans
to ``<spans.json>`` once the daemon has been shut down.
"""

from __future__ import annotations

import sys

from repro.service.__main__ import main
from tracing import Tracer


def traced_main(argv: list[str]) -> int:
    tracer = Tracer()
    with tracer.installed():
        code = main(argv[1:])
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    raise SystemExit(traced_main(sys.argv[1:]))
