"""The study service: jobs, in-flight dedupe, daemon, and the HTTP surface."""

import json
import threading
import time
import urllib.request

import pytest

import repro.api.scheduler as scheduler_module
from repro.api import (
    ExecutionPolicy,
    ResultCache,
    SQLiteStore,
    Study,
    Sweep,
    grid,
    nests_spec,
    run_study,
)
from repro.service import DedupingCache, JobQueue, StudyService
from repro.service.__main__ import main as service_main
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import _Handler, serve


def study(seed: int = 9, ns=(16, 32), trials: int = 3, name: str = "svc-study") -> Study:
    return Study(
        name=name,
        sweep=Sweep(
            base={
                "algorithm": "simple",
                "nests": nests_spec("all_good", k=2),
                "seed": seed,
                "max_rounds": 10_000,
            },
            axes=(grid("n", ns),),
        ),
        trials=trials,
        metrics=("n_trials", "success_rate", "median_rounds"),
    )


@pytest.fixture
def service(tmp_path):
    cache = ResultCache(tmp_path, store=SQLiteStore(tmp_path, shards=2))
    with StudyService(cache=cache, workers=1, executors=2) as svc:
        yield svc


#: The test servers' serve-loop poll interval: ``shutdown()`` waits up to
#: one interval, and the default 0.5 s made every teardown take that long.
POLL_SECONDS = 0.01


def start_server(service):
    server = serve(service, port=0)
    thread = threading.Thread(
        target=server.serve_forever, args=(POLL_SECONDS,), daemon=True
    )
    thread.start()
    return server, thread


@pytest.fixture
def client(service):
    server, _ = start_server(service)
    try:
        yield ServiceClient(server.url)
    finally:
        server.shutdown()
        server.server_close()


class TestJobQueue:
    def test_priority_then_fifo(self):
        queue = JobQueue()
        low1 = queue.submit(study(), priority=0)
        high = queue.submit(study(), priority=5)
        low2 = queue.submit(study(), priority=0)
        assert queue.pop(0) is high
        assert queue.pop(0) is low1
        assert queue.pop(0) is low2
        assert queue.pop(0) is None  # empty: times out, not blocks

    def test_close_wakes_blocked_pop(self):
        queue = JobQueue()
        out = []
        thread = threading.Thread(target=lambda: out.append(queue.pop()))
        thread.start()
        queue.close()
        thread.join(5)
        assert not thread.is_alive()
        assert out == [None]
        with pytest.raises(RuntimeError):
            queue.submit(study())

    def test_jobs_listing_and_lookup(self):
        queue = JobQueue()
        job = queue.submit(study(), cells_total=2)
        assert queue.get(job.id) is job
        assert queue.get("job-999") is None
        assert [j.id for j in queue.jobs()] == [job.id]
        snapshot = job.snapshot()
        assert snapshot["state"] == "queued"
        assert snapshot["cells_total"] == 2
        assert snapshot["cells_done"] == 0


class TestDedupingCache:
    def test_passthrough_hit_and_claim_on_miss(self, tmp_path):
        cache = DedupingCache(ResultCache(tmp_path))
        payload = {"cell": 1}
        assert cache.load(payload) is None  # miss -> this caller owns it
        assert cache.inflight == 1
        # The owner stores; the claim clears and later loads hit.
        stats = run_study(study(ns=(16,)), cache=None).cells[0].stats
        cache.store(payload, stats, {"m": 1.0})
        assert cache.inflight == 0
        entry = cache.load(payload)
        assert entry is not None
        assert entry[1] == {"m": 1.0}
        assert cache.hits == 1

    def test_waiter_blocks_until_owner_stores(self, tmp_path):
        cache = DedupingCache(ResultCache(tmp_path), poll_seconds=0.05)
        payload = {"cell": 2}
        stats = run_study(study(ns=(16,)), cache=None).cells[0].stats
        assert cache.load(payload) is None  # owner claim
        got = []
        waiter = threading.Thread(target=lambda: got.append(cache.load(payload)))
        waiter.start()
        waiter.join(0.2)
        assert waiter.is_alive()  # parked behind the in-flight claim
        cache.store(payload, stats, {"m": 2.0})
        waiter.join(5)
        assert not waiter.is_alive()
        assert got[0] is not None and got[0][1] == {"m": 2.0}
        assert cache.dedupe_waits == 1

    def test_release_on_failure_hands_claim_to_waiter(self, tmp_path):
        cache = DedupingCache(ResultCache(tmp_path), poll_seconds=0.05)
        payload = {"cell": 3}
        assert cache.load(payload) is None  # owner claim
        got = []
        waiter = threading.Thread(target=lambda: got.append(cache.load(payload)))
        waiter.start()
        waiter.join(0.2)
        assert waiter.is_alive()
        cache.release(payload)  # the owner's compute failed
        waiter.join(5)
        assert not waiter.is_alive()
        # The waiter re-raced, found no entry, and now owns the claim.
        assert got == [None]
        assert cache.inflight == 1

    def test_scheduler_releases_claim_when_compute_raises(self, tmp_path, monkeypatch):
        cache = DedupingCache(ResultCache(tmp_path))

        def boom(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(scheduler_module, "run_batch", boom)
        result = run_study(study(ns=(16,)), cache=cache)
        assert result.quarantined  # the cell failed...
        assert cache.inflight == 0  # ...but no claim leaked

    def test_stats_include_dedupe_counters(self, tmp_path):
        cache = DedupingCache(ResultCache(tmp_path))
        stats = cache.stats()
        assert stats["inflight"] == 0
        assert stats["dedupe_waits"] == 0
        assert "hits" in stats and "entries" in stats


class TestStudyService:
    def test_submit_runs_to_done(self, service):
        job = service.submit(study())
        assert job.wait(60)
        assert job.state == "done"
        assert job.cells_total == 2
        assert len(job.events) == 2
        assert job.result.table.equals(run_study(study(), cache=None).table)

    def test_submit_accepts_raw_dicts_and_validates(self, service):
        job = service.submit(study().to_dict())
        assert job.wait(60)
        assert job.state == "done"
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            service.submit({"name": "bad", "sweep": {"axes": []}, "trials": 0})

    def test_concurrent_same_study_computes_each_cell_once(
        self, service, monkeypatch
    ):
        calls = []
        lock = threading.Lock()
        real_run_batch = scheduler_module.run_batch
        barrier_delay = threading.Event()

        def counting_run_batch(scenarios, **kwargs):
            with lock:
                calls.append(len(scenarios))
            barrier_delay.wait(0.15)  # widen the in-flight window
            return real_run_batch(scenarios, **kwargs)

        monkeypatch.setattr(scheduler_module, "run_batch", counting_run_batch)
        twin = study(seed=77, name="twin")
        job_a = service.submit(twin)
        job_b = service.submit(twin)
        assert job_a.wait(120) and job_b.wait(120)
        assert job_a.state == "done" and job_b.state == "done"
        # Exactly one compute per distinct cell, however many requesters.
        assert len(calls) == 2
        assert job_a.result.table.equals(job_b.result.table)
        combined = (
            job_a.result.simulated_trials + job_b.result.simulated_trials
        )
        assert combined == sum(calls)
        served_warm = job_a.result.cache_hits + job_b.result.cache_hits
        assert served_warm == 2  # the second requester's two cells

    def test_failed_job_reports_error(self, service, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("substrate gone")

        monkeypatch.setattr(scheduler_module, "run_batch", boom)
        # fail-fast policy -> the job fails instead of quarantining cells
        from repro.api import ExecutionPolicy

        service.policy = ExecutionPolicy(quarantine=False, backoff_base=0)
        job = service.submit(study(seed=31, name="doomed"))
        assert job.wait(60)
        assert job.state == "failed"
        assert "CellQuarantined" in job.error

    def test_quarantined_study_lands_in_quarantined_state(
        self, service, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("substrate gone")

        monkeypatch.setattr(scheduler_module, "run_batch", boom)
        from repro.api import ExecutionPolicy

        service.policy = ExecutionPolicy(backoff_base=0)
        job = service.submit(study(seed=32, name="limping"))
        assert job.wait(60)
        assert job.state == "quarantined"
        assert job.result is not None
        assert "status" in job.result.table.column_names

    def test_stats_shape(self, service):
        job = service.submit(study())
        job.wait(60)
        stats = service.stats()
        assert stats["workers"] == 1
        assert stats["executors"] == 2
        assert stats["jobs"].get("done") == 1
        assert stats["cache"]["entries"] == 2


class TestHTTPSurface:
    def test_submit_status_stream_result(self, client):
        direct = run_study(study(), cache=None)
        snapshot = client.submit(study())
        job_id = snapshot["job"]
        events = list(client.iter_cells(job_id))
        assert [event["cell"] for event in events] == [0, 1]
        final = client.wait(job_id, timeout=60)
        assert final["state"] == "done"
        assert final["cells_done"] == final["cells_total"] == 2
        data = client.result(job_id)
        assert data["table"] == direct.table.to_dict()
        assert data["simulated_trials"] == direct.simulated_trials

    def test_run_study_is_bit_identical_to_local(self, client):
        via_service = client.run_study(study(), timeout=60)
        local = run_study(study(), cache=None)
        assert via_service.table.equals(local.table)
        # Same study again: every cell served warm from the daemon cache.
        warm = client.run_study(study(), timeout=60)
        assert warm.table.equals(local.table)
        assert warm.cache_hits == 2
        assert warm.simulated_trials == 0

    def test_run_study_streams_then_reads_status_once(
        self, client, service, monkeypatch
    ):
        requests = []
        monkeypatch.setattr(
            _Handler,
            "log_request",
            lambda handler, *args: requests.append((handler.command, handler.path)),
        )
        client.run_study(study(), timeout=60)
        job_id = service.queue.jobs()[0].id
        assert requests == [
            ("POST", "/jobs"),
            ("GET", f"/jobs/{job_id}/cells?since=0"),
            ("GET", f"/jobs/{job_id}"),
        ]

    def test_timeouts_raise_while_the_job_runs(self, client, service, monkeypatch):
        gate = threading.Event()
        real_run_batch = scheduler_module.run_batch

        def gated_run_batch(scenarios, **kwargs):
            gate.wait(30)
            return real_run_batch(scenarios, **kwargs)

        monkeypatch.setattr(scheduler_module, "run_batch", gated_run_batch)
        try:
            start = time.monotonic()
            with pytest.raises(ServiceError):
                client.run_study(study(seed=56, name="gated"), timeout=0.5)
            job_id = service.queue.jobs()[0].id
            with pytest.raises(ServiceError):
                client.wait(job_id, timeout=0.5)
            assert time.monotonic() - start < 5
        finally:
            gate.set()
        assert client.wait(job_id, timeout=60)["state"] == "done"

    def test_stream_deadline_spans_lines(self, client, monkeypatch):
        real_run_batch = scheduler_module.run_batch

        def slow_run_batch(scenarios, **kwargs):
            time.sleep(0.2)
            return real_run_batch(scenarios, **kwargs)

        monkeypatch.setattr(scheduler_module, "run_batch", slow_run_batch)
        drip = study(seed=57, ns=(16, 24, 32, 40, 48), name="drip")
        job_id = client.submit(drip)["job"]
        # Every line arrives within the 0.5 s socket timeout, but the
        # stream as a whole outlives it.
        with pytest.raises(ServiceError, match="still streaming"):
            list(client.iter_cells(job_id, timeout=0.5))
        assert client.wait(job_id, timeout=60)["state"] == "done"

    def test_run_study_raises_when_the_job_fails(self, client, service, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("substrate gone")

        monkeypatch.setattr(scheduler_module, "run_batch", boom)
        service.policy = ExecutionPolicy(quarantine=False, backoff_base=0)
        with pytest.raises(ServiceError, match="CellQuarantined"):
            client.run_study(study(seed=33, name="doomed"), timeout=60)

    def test_run_study_returns_quarantined_cells(self, client, service, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("substrate gone")

        monkeypatch.setattr(scheduler_module, "run_batch", boom)
        service.policy = ExecutionPolicy(backoff_base=0)
        remote = client.run_study(study(seed=34, name="limping"), timeout=60)
        local = run_study(
            study(seed=34, name="limping"), cache=None, policy=service.policy
        )
        assert remote.quarantined
        assert remote.table.equals(local.table)

    def test_run_study_rejects_an_incomplete_stream(self, client, monkeypatch):
        real_iter_cells = ServiceClient.iter_cells

        def drop_first_event(self, job_id, since=0, timeout=None):
            events = real_iter_cells(self, job_id, since, timeout)
            next(events)
            yield from events

        monkeypatch.setattr(ServiceClient, "iter_cells", drop_first_event)
        with pytest.raises(ServiceError, match="incomplete cell stream"):
            client.run_study(study(seed=35, name="short"), timeout=60)

    def test_leaving_a_stream_early_is_not_an_error(self, service, monkeypatch):
        """A client that closes its cell stream mid-job makes the daemon's
        next write fail; the handler ends quietly instead of reaching the
        server's ``handle_error``, which prints a traceback."""
        gate = threading.Event()
        real_run_batch = scheduler_module.run_batch
        calls = []

        def later_cells_wait(scenarios, **kwargs):
            calls.append(None)
            if len(calls) > 1:
                gate.wait(30)
            return real_run_batch(scenarios, **kwargs)

        monkeypatch.setattr(scheduler_module, "run_batch", later_cells_wait)
        server, _ = start_server(service)
        errors = []
        server.handle_error = lambda request, address: errors.append(address)
        try:
            client = ServiceClient(server.url)
            job_id = client.submit(study(seed=58, ns=(16, 24, 32, 40), name="left"))["job"]
            url = f"{server.url}/jobs/{job_id}/cells"
            with urllib.request.urlopen(url, timeout=30) as stream:
                assert json.loads(stream.readline())["cell"] == 0
            gate.set()
            assert client.wait(job_id, timeout=60)["state"] == "done"
        finally:
            gate.set()
            server.shutdown()
            server.server_close()  # joins every handler thread, the stream's too
        assert errors == []

    def test_stream_resumes_with_since(self, client):
        job_id = client.submit(study())["job"]
        client.wait(job_id, timeout=60)
        all_events = list(client.iter_cells(job_id))
        tail = list(client.iter_cells(job_id, since=1))
        assert tail == all_events[1:]

    def test_error_statuses(self, client):
        with pytest.raises(ServiceError, match="404"):
            client.status("job-999")
        with pytest.raises(ServiceError, match="400"):
            client._request("POST", "/jobs", {"study": {"name": "broken"}})
        with pytest.raises(ServiceError, match="404"):
            client._request("GET", "/nope")

    def test_result_before_terminal_is_409(self, client, monkeypatch):
        gate = threading.Event()
        real_run_batch = scheduler_module.run_batch

        def gated_run_batch(scenarios, **kwargs):
            gate.wait(30)
            return real_run_batch(scenarios, **kwargs)

        monkeypatch.setattr(scheduler_module, "run_batch", gated_run_batch)
        job_id = client.submit(study(seed=55, name="slow"))["job"]
        try:
            with pytest.raises(ServiceError, match="409"):
                client.result(job_id)
        finally:
            gate.set()
        client.wait(job_id, timeout=60)

    def test_healthz_and_stats(self, client):
        assert client.healthy()
        stats = client.stats()
        assert "uptime_seconds" in stats
        assert stats["cache"]["kind"] == "sqlite"

    def test_jobs_listing(self, client):
        first = client.submit(study())["job"]
        second = client.submit(study(seed=12, name="other"))["job"]
        listed = [job["job"] for job in client.jobs()]
        assert listed[:2] == [second, first]  # newest first

    def test_shutdown_endpoint(self, tmp_path):
        cache = ResultCache(tmp_path / "c", store=SQLiteStore(tmp_path / "c"))
        service = StudyService(cache=cache, workers=1, executors=1)
        server, thread = start_server(service)
        client = ServiceClient(server.url)
        assert client.healthy()
        assert client.shutdown()["ok"] is True
        thread.join(10)
        assert not thread.is_alive()
        assert not client.healthy()


class TestServiceCLI:
    def test_submit_wait_prints_the_done_snapshot(self, client, tmp_path, capsys):
        path = tmp_path / "study.json"
        path.write_text(study().to_json(), encoding="utf-8")
        assert service_main(["submit", str(path), "--wait", "--url", client.url]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["state"] == "done"
        assert snapshot["cells_done"] == snapshot["cells_total"] == 2

    def test_fetch_wait_prints_the_table_as_csv(self, client, capsys):
        job_id = client.submit(study())["job"]
        assert service_main(["fetch", job_id, "--wait", "--url", client.url]) == 0
        lines = capsys.readouterr().out.splitlines()
        local = run_study(study(), cache=None)
        assert lines[0] == local.table.to_csv().splitlines()[0]
        assert len(lines) == 1 + local.table.n_rows

    def test_status_of_an_unknown_job_exits_2(self, client, capsys):
        assert service_main(["status", "job-999", "--url", client.url]) == 2
        assert "404" in capsys.readouterr().err


class TestExperimentsRouting:
    def test_execute_study_routes_through_service(self, client, monkeypatch):
        from repro.experiments.common import execute_study

        monkeypatch.setenv("REPRO_SERVICE_URL", client.url)
        routed = execute_study(study())
        local = run_study(study(), cache=None)
        assert routed.table.equals(local.table)

    def test_execute_study_stays_local_without_env(self, monkeypatch):
        from repro.experiments.common import execute_study

        monkeypatch.delenv("REPRO_SERVICE_URL", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        result = execute_study(study())
        assert result.table.n_rows == 2
