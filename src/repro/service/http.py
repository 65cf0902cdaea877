"""HTTP frontend for :class:`~repro.service.daemon.StudyService`.

Stdlib-only (:mod:`http.server` ``ThreadingHTTPServer``) — the service
must run in the bare container, so no web framework.  The surface is
small and JSON-first:

====================================  ========================================
``POST /jobs``                        submit a Study (JSON body, optionally
                                      ``{"study": {...}, "priority": n}``);
                                      202 with the job snapshot
``GET /jobs``                         every known job, newest first
``GET /jobs/<id>``                    one job's status + per-cell progress
``GET /jobs/<id>/cells?since=<n>``    completed cells streamed as NDJSON,
                                      starting at event index ``n``; holds
                                      the connection open until the job ends
``GET /jobs/<id>/result``             the terminal result: study, table
                                      columns, cache counters, cell events
``GET /stats``                        service + queue + cache/store counters
``GET /healthz``                      liveness probe
``POST /shutdown``                    graceful stop (drains running jobs)
====================================  ========================================

Every response is JSON except the NDJSON cell stream (one JSON object per
line, ``application/x-ndjson``).  Errors are ``{"error": ...}`` with 400
(bad submission), 404 (unknown job/route), or 409 (result requested
before the job is terminal).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ReproError
from repro.service.daemon import StudyService
from repro.service.jobs import Job

#: Default TCP port — the registered-looking but unassigned corner of the
#: dynamic range the docs use throughout.
DEFAULT_PORT = 8642

#: Seconds a cell-stream poll waits per wakeup check (the stream also
#: wakes immediately on new events; this bounds a lost-notify stall).
STREAM_POLL_SECONDS = 0.5


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`StudyService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: StudyService) -> None:
        super().__init__(address, _Handler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop serving, then drain the service (running jobs finish)."""
        self.shutdown()
        self.server_close()
        self.service.close()


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        pass  # the daemon's stdout is for the operator, not per-request noise

    @property
    def service(self) -> StudyService:
        return self.server.service

    def _send_json(self, code: int, payload: Any) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        return json.loads(raw)

    def _job_or_404(self, job_id: str) -> Job | None:
        job = self.service.queue.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
        return job

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        query = parse_qs(split.query)
        if parts == ["healthz"]:
            self._send_json(200, {"ok": True})
        elif parts == ["stats"]:
            self._send_json(200, self.service.stats())
        elif parts == ["jobs"]:
            self._send_json(
                200, [job.snapshot() for job in self.service.queue.jobs()]
            )
        elif len(parts) == 2 and parts[0] == "jobs":
            job = self._job_or_404(parts[1])
            if job is not None:
                self._send_json(200, job.snapshot())
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cells":
            job = self._job_or_404(parts[1])
            if job is not None:
                self._stream_cells(job, query)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            job = self._job_or_404(parts[1])
            if job is not None:
                self._send_result(job)
        else:
            self._error(404, f"no route for GET {split.path}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        if parts == ["jobs"]:
            self._submit()
        elif parts == ["shutdown"]:
            self._send_json(200, {"ok": True, "state": "shutting down"})
            # shutdown() must come from outside the serve loop's thread.
            threading.Thread(target=self.server.close, daemon=True).start()
        else:
            self._error(404, f"no route for POST {split.path}")

    # -- handlers -------------------------------------------------------------

    def _submit(self) -> None:
        try:
            data = self._read_body()
            if not isinstance(data, dict):
                raise ValueError("the body must be a JSON object")
            priority = 0
            study_data = data
            if "study" in data:
                study_data = data["study"]
                priority = int(data.get("priority", 0))
            job = self.service.submit(study_data, priority=priority)
        except (ReproError, ValueError, KeyError, TypeError) as error:
            self._error(400, f"{type(error).__name__}: {error}")
            return
        except RuntimeError as error:  # queue closed mid-shutdown
            self._error(503, str(error))
            return
        self._send_json(202, job.snapshot())

    def _stream_cells(self, job: Job, query: dict[str, list[str]]) -> None:
        try:
            since = int(query.get("since", ["0"])[0])
        except ValueError:
            self._error(400, "since must be an integer")
            return
        if since < 0:
            since = 0
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        # Length is unknown up front; close delimits the stream (the one
        # endpoint that opts out of HTTP/1.1 keep-alive).
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        while True:
            events, terminal = job.wait_events(since, STREAM_POLL_SECONDS)
            try:
                for event in events:
                    line = json.dumps(event) + "\n"
                    self.wfile.write(line.encode("utf-8"))
                if events:
                    self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return  # the client left the stream; the job runs on
            since += len(events)
            if terminal and not job.events[since:]:
                return

    def _send_result(self, job: Job) -> None:
        if not job.terminal:
            self._error(
                409, f"job {job.id} is {job.state}; result not ready"
            )
            return
        if job.result is None:  # failed before producing a table
            self._send_json(
                200,
                {"job": job.id, "state": job.state, "error": job.error},
            )
            return
        result = job.result
        self._send_json(
            200,
            {
                "job": job.id,
                "state": job.state,
                "study": result.study.to_dict(),
                "table": result.table.to_dict(),
                "cells": len(result.cells),
                "cache_hits": result.cache_hits,
                "cache_misses": result.cache_misses,
                "simulated_trials": result.simulated_trials,
                "events": list(job.events),
            },
        )


def serve(
    service: StudyService, host: str = "127.0.0.1", port: int = DEFAULT_PORT
) -> ServiceHTTPServer:
    """Bind a server for ``service`` (``port=0`` picks an ephemeral port)."""
    return ServiceHTTPServer((host, port), service)
