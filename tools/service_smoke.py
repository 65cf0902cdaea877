#!/usr/bin/env python
"""End-to-end smoke of the study service: real daemon, two clients, dedupe.

What CI's ``service-smoke`` job actually proves:

1. ``python -m repro.service serve`` boots as a real subprocess (ephemeral
   port, sharded SQLite store) and answers ``/healthz``;
2. two clients submit the *same* quick study concurrently; both jobs reach
   ``done`` and return bit-identical tables;
3. the pair simulated each cell exactly once — the second requester was
   served by the cache / in-flight dedupe (combined ``simulated_trials``
   equals one cold run's, and the warm side's ``cache_hits`` covers its
   cells);
4. ``POST /shutdown`` stops the daemon cleanly (exit code 0);
5. a second daemon SIGKILLed while a client's ``run_study`` streams a
   slow study (one n=64 cell, then an n=65536 cell) leaves that client
   with ``ServiceError`` and no table: the stream ending is not taken as
   the job ending.

Usage::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")


def smoke_study(name: str, seed: int, ns: tuple[int, ...], trials: int):
    from repro.api import Study, Sweep, grid, nests_spec

    return Study(
        name=name,
        sweep=Sweep(
            base={
                "algorithm": "simple",
                "nests": nests_spec("all_good", k=2),
                "seed": seed,
                "max_rounds": 20_000,
            },
            axes=(grid("n", ns),),
        ),
        trials=trials,
        metrics=("n_trials", "success_rate", "median_rounds"),
    )


def start_daemon(cache_dir: str) -> tuple[subprocess.Popen, str | None]:
    """Serve on an ephemeral port; returns the process and its healthy URL.

    The URL is ``None`` (after a FAIL line) when the daemon never announced
    one or never answered ``/healthz``.
    """
    from repro.service.client import ServiceClient

    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "serve",
            "--port", "0", "--workers", "1", "--executors", "2",
            "--cache-dir", cache_dir, "--store", "sqlite",
        ],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
    )
    line = daemon.stdout.readline()
    match = re.search(r"listening on (http://\S+)", line)
    if not match:
        print(f"FAIL: daemon did not announce a URL (got {line!r})")
        return daemon, None
    url = match.group(1)
    client = ServiceClient(url)
    deadline = time.monotonic() + 10
    while not client.healthy():
        if time.monotonic() > deadline:
            print("FAIL: /healthz never answered")
            return daemon, None
        time.sleep(0.1)
    print(f"daemon up at {url}")
    return daemon, url


def killed_daemon_step() -> int:
    """SIGKILL a daemon mid-job; the streaming client must raise, not return."""
    from repro.service.client import ServiceClient, ServiceError

    slow = smoke_study("smoke-killed", seed=2016, ns=(64, 65536), trials=32)
    with tempfile.TemporaryDirectory(prefix="service-smoke-killed-") as cache_dir:
        daemon, url = start_daemon(cache_dir)
        try:
            if url is None:
                return 1
            outcome: dict = {}

            def stream() -> None:
                try:
                    outcome["result"] = ServiceClient(url).run_study(slow, timeout=120)
                except ServiceError as error:
                    outcome["error"] = error

            thread = threading.Thread(target=stream)
            thread.start()
            client = ServiceClient(url)
            deadline = time.monotonic() + 60
            jobs = client.jobs()
            while not (jobs and jobs[0]["cells_done"] >= 1):
                if time.monotonic() > deadline:
                    print("FAIL: the slow job never finished its first cell")
                    return 1
                time.sleep(0.05)
                jobs = client.jobs()
            if jobs[0]["state"] != "running":
                print(f"FAIL: the slow job was {jobs[0]['state']} before the kill")
                return 1
            daemon.kill()
            daemon.wait()
            print(f"killed the daemon after {jobs[0]['cells_done']} of 2 cells")
            thread.join(60)
            if thread.is_alive():
                print("FAIL: the client never returned after the kill")
                return 1
            if "result" in outcome:
                rows = outcome["result"].table.n_rows
                print(f"FAIL: the client returned a {rows}-row table from a killed job")
                return 1
            if "error" not in outcome:
                print("FAIL: the client raised something other than ServiceError")
                return 1
            print(f"client raised ServiceError: {outcome['error']}")
            return 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
            daemon.wait()
            daemon.stdout.close()


def main() -> int:
    sys.path.insert(0, SRC)
    from repro.api import run_study
    from repro.service.client import ServiceClient

    study = smoke_study("smoke", seed=2015, ns=(32, 64), trials=4)
    cache_dir = tempfile.mkdtemp(prefix="service-smoke-cache-")
    daemon, url = start_daemon(cache_dir)
    try:
        if url is None:
            return 1
        client = ServiceClient(url)

        # Two concurrent clients, same study.
        results = {}
        def submit_and_fetch(name: str) -> None:
            results[name] = ServiceClient(url).run_study(study, timeout=120)

        threads = [
            threading.Thread(target=submit_and_fetch, args=(f"client-{i}",))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(180)
        if any(thread.is_alive() for thread in threads):
            print("FAIL: a client never completed")
            return 1

        local = run_study(study, cache=None)
        a, b = results["client-0"], results["client-1"]
        if not (a.table.equals(local.table) and b.table.equals(local.table)):
            print("FAIL: daemon tables differ from the local run")
            return 1
        print("tables bit-identical to the local run")

        combined = a.simulated_trials + b.simulated_trials
        expected = local.simulated_trials
        if combined != expected:
            print(
                f"FAIL: {combined} trials simulated across both clients, "
                f"expected exactly one run's {expected} (dedupe broken)"
            )
            return 1
        warm_hits = a.cache_hits + b.cache_hits
        n_cells = len(local.cells)
        if warm_hits < n_cells:
            print(
                f"FAIL: only {warm_hits} warm-served cells across both "
                f"clients, expected >= {n_cells}"
            )
            return 1
        print(
            f"dedupe held: {combined} trials simulated once, "
            f"{warm_hits} cells served warm"
        )

        stats = client.stats()
        print(f"store: {stats['cache']['kind']}, entries={stats['cache']['entries']}")
        client.shutdown()
        code = daemon.wait(timeout=30)
        if code != 0:
            print(f"FAIL: daemon exited {code}")
            return 1
        print("clean shutdown")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    if killed_daemon_step():
        return 1
    print("service smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
