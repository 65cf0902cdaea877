"""The benchmark's three workloads: inputs from a seed, one timed pass, checks.

Every workload is a fixed unit of work (a *pass*) that ``run.py`` repeats
until the run's time is used up, so a pass-level figure compares across
commits whatever their speed:

- ``reproduce_quick`` — all 15 experiment runners at ``quick=True`` with
  ``workers=1`` and no cache (``python -m repro.experiments --quick``);
- ``kernel_sweep`` — one six-cell large-n study through ``run_study`` with
  a two-process pool and no cache;
- ``service_mix`` — a fixed job sequence against a fresh
  ``python -m repro.service serve`` daemon, driven by two closed-loop
  client threads through ``ServiceClient.run_study``.

The program only ever sees the generated studies; the seed stays here.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
import urllib.request
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


@dataclass
class Pass:
    """What one pass of a workload did and how long it took."""

    wall_s: float
    trials: int
    attempted: int
    failed: int
    #: Workload-specific outputs for the correctness checks.
    outputs: Any = None
    #: Seconds of each step of a pass whose steps run one after another
    #: (a trial, a cell or a study's remainder in the reproduction; a cell
    #: of the sweep); ``None`` where jobs overlap.
    steps: list[float] | None = None
    #: Latency in seconds of each of the overlapping jobs of a pass (a job
    #: is one study a service client waits for); empty elsewhere.
    latencies: list[float] = field(default_factory=list)
    #: Per-layer counters gathered outside the tracer (service stats).
    extra: dict[str, Any] = field(default_factory=dict)


def _span(tracer, layer: str, label: str):
    return tracer.span(layer, label) if tracer is not None else nullcontext()


@contextmanager
def observed_folds():
    """Record every StudyResult the scheduler folds (cells, failures, trials).

    One wrapper call per study and no clock reads, so it is installed in
    untraced runs too: it is how ``reproduce_quick`` learns how many cells
    and trials ran, and whether any cell was quarantined or degraded,
    without changing what the runners return.
    """
    import repro.api.scheduler as scheduler_mod

    original = scheduler_mod.fold_study_result
    results: list = []

    def observe(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    scheduler_mod.fold_study_result = observe
    try:
        yield results
    finally:
        scheduler_mod.fold_study_result = original


class StepClock:
    """Splits a pass into short steps that add up to its wall time.

    A step is a clocked block's own seconds: its wall time less the
    steps recorded inside it.  :func:`clocked_calls` makes every cell
    (the scheduler's ``run_batch`` call) and every scenario a cell runs
    on its own (``repro.api.runner.run``: a Pólya urn or agent-engine
    trial of a few to a hundred milliseconds) a block, and the caller
    wraps each study in one; a batch-kernel chunk stays inside its
    cell's step.  Every pass of a run makes the same calls in the same
    order, so step ``i`` is the same work in every pass.
    """

    def __init__(self) -> None:
        self.steps: list[float] = []
        self._total = 0.0

    @contextmanager
    def block(self):
        inner = self._total
        start = time.perf_counter()
        try:
            yield
        finally:
            own = time.perf_counter() - start - (self._total - inner)
            self.steps.append(own)
            self._total += own

    def wrap(self, function):
        def clocked(*args, **kwargs):
            with self.block():
                return function(*args, **kwargs)

        return clocked


@contextmanager
def clocked_calls(clock: StepClock):
    """Clock every ``run_batch`` call of the scheduler and every single
    scenario ``run_batch`` runs, in traced and untraced passes alike.

    Two clock reads per call, against a few milliseconds or more of work.
    """
    import repro.api.runner as runner_mod
    import repro.api.scheduler as scheduler_mod

    patched = [(scheduler_mod, "run_batch"), (runner_mod, "run")]
    originals = [getattr(owner, attr) for owner, attr in patched]
    for (owner, attr), original in zip(patched, originals):
        setattr(owner, attr, clock.wrap(original))
    try:
        yield clock
    finally:
        for (owner, attr), original in zip(patched, originals):
            setattr(owner, attr, original)


def _fold_counts(results) -> tuple[int, int, int]:
    attempted = sum(len(r.cells) for r in results)
    failed = sum(len(r.quarantined) + len(r.degraded) for r in results)
    trials = sum(r.simulated_trials for r in results)
    return attempted, failed, trials


# -- reproduce_quick ---------------------------------------------------------

#: Runners of the tiny self-test size, also run once before a traced run to
#: warm lazy imports.  Cheap quick studies that between them reach every layer
#: class but the Pólya urns (E14 alone takes seconds): the rumor baseline
#: (E1), a measurement process (E2), batch kernels (E3, E6, E13) and the
#: agent engine under ``backend="auto"`` (E10).
TINY_RUNNERS = ("E1", "E2", "E3", "E6", "E10", "E13")


#: Base seed of every reproduction: the one the committed tables were made
#: with.  The quick studies' work depends on the base seed (at some seeds
#: E12's Byzantine cells run to their 5000-round cap, and one study took
#: three times as long), so a seed-dependent base seed measured the seed,
#: not the program; a fixed one also lets every run check every table
#: byte for byte.
BASE_SEED = 0


def runner_order(seed: int, tiny: bool) -> list[str]:
    """The runners in the order the workload seed shuffles them into."""
    from repro.experiments import RUNNERS

    order = list(TINY_RUNNERS) if tiny else list(RUNNERS)
    random.Random(seed).shuffle(order)
    return order


def reproduce_pass(order: list[str], tracer=None) -> Pass:
    """Every runner of ``order`` once, at ``quick=True`` and :data:`BASE_SEED`."""
    from repro.experiments import RUNNERS

    rendered: dict[str, str] = {}
    with observed_folds() as folds, clocked_calls(StepClock()) as clock:
        start = time.perf_counter()
        for eid in order:
            # The study's trials and cells, then the rest of it
            # (expansion, folds, table building, rendering) as one step.
            with clock.block():
                with _span(tracer, "experiments", eid):
                    table = RUNNERS[eid](quick=True, base_seed=BASE_SEED)
                with _span(tracer, "render", eid):
                    rendered[eid] = table.render() + "\n"
        wall = time.perf_counter() - start
    attempted, failed, trials = _fold_counts(folds)
    return Pass(wall, trials, attempted, failed, rendered, steps=clock.steps)


def check_reproduce(passes: list[Pass]) -> list[tuple[str, bool]]:
    """Every pass renders every table exactly as committed."""
    checks = []
    for eid in passes[0].outputs:
        committed = (ROOT / "benchmarks" / "output" / f"{eid}.txt").read_text(
            encoding="utf-8"
        )
        checks.append(
            (
                f"{eid} equals committed output in every pass",
                all(p.outputs[eid] == committed for p in passes),
            )
        )
    return checks


# -- kernel_sweep ------------------------------------------------------------

#: Pool size of the measured passes (the record box has two CPUs).
SWEEP_WORKERS = 2


def kernel_study(seed: int, tiny: bool):
    """The six-cell large-n study; each cell's scenario seed comes from ``seed``.

    Five cells run 16 trials each and fit one chunk, so they run in the
    parent even with a pool; the sixth runs 512 trials in 64-trial chunks,
    which go to the pool.  A batch kernel's work is the sum of its trials'
    rounds, which the cell seeds move (the quorum cell's median ranged
    from about 2000 to 3200 rounds over five seeds at 8 trials), so fewer
    trials made the work, not just the machine, differ from seed to seed.
    """
    from repro.api import Study, Sweep, cases, nests_spec

    rng = random.Random(seed)
    scale = 16 if tiny else 1
    rows = [
        {"cell": "simple", "algorithm": "simple", "n": 65536 // scale},
        {
            "cell": "simple crash 0.1",
            "algorithm": "simple",
            "n": 65536 // scale,
            "fault_plan": {"crash_fraction": 0.1},
            "criterion": "good_healthy",
        },
        {
            "cell": "simple delay 0.2",
            "algorithm": "simple",
            "n": 16384 // scale,
            "delay_model": {"delay_probability": 0.2},
        },
        {"cell": "optimal", "algorithm": "optimal", "n": 16384 // scale},
        {"cell": "quorum", "algorithm": "quorum", "n": 4096 // scale},
        {
            "cell": "simple many trials",
            "algorithm": "simple",
            "n": 4096,
            "trials": 128 if tiny else 512,
        },
    ]
    for row in rows:
        row["seed"] = rng.randrange(2**31)
    return Study(
        name=f"kernel-sweep-{seed}",
        description="large-n batch-kernel sweep (benchmark workload)",
        sweep=Sweep(
            base={"nests": nests_spec("all_good", k=8), "max_rounds": 100_000},
            axes=(cases(*rows),),
        ),
        trials=4 if tiny else 16,
    )


def sweep_pass(study, workers: int, pool=None) -> Pass:
    """The study as ``run_study`` runs it, timing each cell as it lands.

    ``run_study`` is ``CellScheduler(...).run()``, which folds the
    scheduler's streamed ``outcomes()``; driving that stream here is the
    same execution with a clock read between cells.
    """
    from repro.api import CellScheduler
    from repro.api.scheduler import fold_study_result

    cells, steps = [], []
    start = mark = time.perf_counter()
    with CellScheduler(study, workers=workers, cache=None, pool=pool) as scheduler:
        for cell in scheduler.outcomes():
            now = time.perf_counter()
            steps.append(now - mark)
            mark = now
            cells.append(cell)
        result = fold_study_result(study, cells, cached=False)
    wall = time.perf_counter() - start
    attempted, failed, trials = _fold_counts([result])
    return Pass(wall, trials, attempted, failed, result.table, steps=steps)


def warm_pool(workers: int):
    """A started pool whose workers have all forked (set-up, not timed)."""
    from repro.api import WorkerPool

    pool = WorkerPool(workers)
    futures = [pool.executor().submit(os.getpid) for _ in range(workers)]
    for future in futures:
        future.result()
    return pool


def reference_pass(study) -> Pass | None:
    """The cells that reach the pool, run again with ``workers=1``.

    A cell that fits one chunk runs in the parent whatever the worker
    count, through the same code as at ``workers=1``; only cells of more
    than one chunk (``default_batch_chunk``) take the pool and transport
    path.  Re-running just those keeps the reference cheap while it still
    covers every cell whose results a pool could change.  ``None`` when no
    cell reaches the pool.
    """
    from repro.api import Sweep, cases, default_batch_chunk

    (axis,) = study.sweep.axes
    pooled = [
        row
        for row in axis["cases"]
        if row.get("trials", study.trials) > default_batch_chunk(row["n"])
    ]
    if not pooled:
        return None
    sub = replace(
        study,
        name=f"{study.name}-pooled-cells",
        sweep=Sweep(base=study.sweep.base, axes=(cases(*pooled),)),
    )
    return sweep_pass(sub, 1)


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN equals NaN, as in .equals


def check_sweep(passes: list[Pass], reference: Pass | None) -> list[tuple[str, bool]]:
    first = passes[0].outputs
    checks = [
        (
            f"workers={SWEEP_WORKERS} tables identical across passes",
            all(p.outputs.equals(first) for p in passes),
        )
    ]
    if reference is not None:
        rows_match = all(
            all(_same(first.select(cell=row["cell"]).row(0)[key], value) for key, value in row.items())
            for row in reference.outputs.rows()
        )
        checks.append(
            (
                f"workers={SWEEP_WORKERS} rows equal the workers=1 rows of "
                f"the {reference.outputs.n_rows} cell(s) that reached the pool",
                rows_match,
            )
        )
    return checks


# -- service_mix -------------------------------------------------------------

#: Jobs per pass: three passes leave well over ten samples beyond p90.
SERVICE_JOBS = 60
SERVICE_CLIENTS = 2

#: Colony sizes of a job's four cells.  ``ServiceClient.run_study`` polls
#: job status every 0.2 s, so latencies fall in 0.2 s steps; a job this
#: size computes in well under one step even while the other client's job
#: computes beside it, so p90 stays in the first step.  With n up to 2048
#: about a tenth of the jobs needed a second poll, and p90 jumped between
#: about 0.21 s and 0.41 s from run to run.
SERVICE_SIZES = (64, 128, 256, 512)


def service_jobs(seed: int, tiny: bool) -> list:
    """The seeded job sequence: half of the jobs repeat an earlier study.

    The share is exact, not drawn, so every seed asks for the same amount
    of simulation; which jobs repeat, and which study they repeat, is drawn.
    """
    from repro.api import Study, Sweep, grid, nests_spec

    rng = random.Random(seed)
    sizes = (64, 128) if tiny else SERVICE_SIZES
    count = 6 if tiny else SERVICE_JOBS
    repeats = [False] + [True] * (count // 2) + [False] * (count - 1 - count // 2)
    rng.shuffle(repeats)
    repeats.remove(False)
    repeats.insert(0, False)
    distinct: list = []
    jobs: list = []
    for repeat in repeats:
        if repeat:
            jobs.append(rng.choice(distinct))
            continue
        study_seed = rng.randrange(2**31)
        study = Study(
            name=f"mix-{study_seed}",
            sweep=Sweep(
                base={
                    "algorithm": "simple",
                    "nests": nests_spec("all_good", k=4),
                    "seed": study_seed,
                    "max_rounds": 100_000,
                },
                axes=(grid("n", sizes),),
            ),
            trials=16,
        )
        distinct.append(study)
        jobs.append(study)
    return jobs


def _get_json(url: str, timeout: float = 10.0) -> Any:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


class Daemon:
    """A study-service daemon subprocess on an ephemeral port.

    ``trace_path`` starts it through ``traced_daemon.py``, which wraps the
    same layer entry points as the in-process tracer and writes its spans
    there on shutdown; otherwise it is exactly ``python -m repro.service
    serve``.  ``setup_s`` is process start until ``/healthz`` answers.
    """

    def __init__(self, cache_dir: Path, trace_path: Path | None = None) -> None:
        serve = [
            "serve", "--port", "0", "--workers", "1",
            "--cache-dir", str(cache_dir), "--store", "sqlite",
        ]
        if trace_path is None:
            command = [sys.executable, "-m", "repro.service", *serve]
        else:
            command = [sys.executable, str(HERE / "traced_daemon.py"), str(trace_path), *serve]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            marker = "listening on "
            if marker not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.url = line.split(marker, 1)[1].strip()
            while not _get_json(f"{self.url}/healthz").get("ok"):
                time.sleep(0.01)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def stop(self) -> None:
        """Graceful shutdown; waits for the process to end."""
        try:
            request = urllib.request.Request(f"{self.url}/shutdown", method="POST")
            with urllib.request.urlopen(request, timeout=10):
                pass
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def service_pass(jobs: list, workdir: Path, tracer=None, trace_path: Path | None = None) -> Pass:
    """One fresh daemon, the whole job sequence, two closed-loop clients."""
    import tempfile

    from repro.service.client import ServiceClient, ServiceError

    with tempfile.TemporaryDirectory(dir=workdir) as cache_dir:
        daemon = Daemon(Path(cache_dir), trace_path)
        try:
            order = iter(enumerate(jobs))
            lock = threading.Lock()
            records: list[tuple[int, float, Any]] = []

            def client_loop() -> None:
                client = ServiceClient(daemon.url, timeout=120)
                while True:
                    with lock:
                        item = next(order, None)
                    if item is None:
                        return
                    index, study = item
                    job_start = time.perf_counter()
                    try:
                        with _span(tracer, "service", "client_run_study"):
                            outcome = client.run_study(study, timeout=120)
                    except ServiceError as error:
                        outcome = error
                    latency = time.perf_counter() - job_start
                    with lock:
                        records.append((index, latency, outcome))

            threads = [
                threading.Thread(target=client_loop, name=f"client-{i}")
                for i in range(SERVICE_CLIENTS)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            stats = _get_json(f"{daemon.url}/stats")
            snapshots = _get_json(f"{daemon.url}/jobs")
        finally:
            daemon.stop()
    tables: dict[int, Any] = {}
    failed = 0
    for index, _, outcome in records:
        if isinstance(outcome, Exception) or outcome.quarantined or outcome.degraded:
            failed += 1
        else:
            tables[index] = outcome.table
    trials = sum(s.get("trials_simulated", 0) for s in snapshots)
    run_seconds = sum(s.get("run_seconds", 0.0) for s in snapshots)
    latencies = [latency for _, latency, _ in records]
    return Pass(
        wall,
        trials,
        attempted=len(jobs),
        failed=failed,
        outputs=tables,
        latencies=latencies,
        extra={
            "setup_s": daemon.setup_s,
            "stats": stats,
            "run_s": run_seconds,
            "latency_s": sum(latencies),
        },
    )


def check_service(jobs: list, passes: list[Pass]) -> list[tuple[str, bool]]:
    """Each distinct job's table equals an in-process run of the same study."""
    from repro.api import run_study

    expected: dict[str, Any] = {}
    ok = True
    for p in passes:
        if len(p.outputs) != len(jobs):
            ok = False
        for index, table in p.outputs.items():
            study = jobs[index]
            if study.name not in expected:
                expected[study.name] = run_study(study, workers=1, cache=None).table
            ok = ok and table.equals(expected[study.name])
    return [("every job table equals an in-process run_study", ok)]


# -- set-up probes -------------------------------------------------------------


def probe_setup(workload: str) -> float:
    """Seconds from process start until a fresh process is ready to work.

    ``service_mix`` set-up is a daemon answering ``/healthz``; the others
    run ``probe.py``, which imports the package (registries included),
    loads the kernel backend and, for ``kernel_sweep``, forks and warms the
    worker pool before it reports ready.
    """
    if workload == "service_mix":
        import tempfile

        workdir = Path(os.environ["TMPDIR"])
        with tempfile.TemporaryDirectory(dir=workdir) as cache_dir:
            daemon = Daemon(Path(cache_dir))
            daemon.stop()
            return daemon.setup_s
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return elapsed
