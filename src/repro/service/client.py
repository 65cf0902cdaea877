"""Thin HTTP client for the study service (stdlib ``urllib`` only).

:class:`ServiceClient` wraps the daemon's JSON surface: submit a study,
read job status, stream completed cells as NDJSON, and fetch terminal
results.  :meth:`ServiceClient.run_study` is the drop-in path: submit,
stream the cell events, read the status once, and rebuild a full
:class:`~repro.api.sweep.StudyResult` locally from the events — no
polling, no ``/result`` — re-folding through the same
:func:`~repro.api.scheduler.fold_study_result` the daemon used, so the
returned table is bit-identical to a local :func:`repro.api.run_study`
of the same study.

``$REPRO_SERVICE_URL`` names the daemon; code that calls
:func:`repro.experiments.common.execute_study` routes through it
automatically when the variable is set, which is how a fleet of
experiment scripts shares one warm daemon (and its cache) without code
changes.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro import knobs
from repro.api.scheduler import fold_study_result
from repro.api.sweep import (
    CellFailure,
    CellResult,
    Study,
    StudyResult,
    expand_study,
)
from repro.exceptions import ReproError
from repro.service.jobs import TERMINAL_STATES

#: Where a daemon listens when nobody says otherwise.
DEFAULT_URL = "http://127.0.0.1:8642"


def default_service_url() -> str:
    """``$REPRO_SERVICE_URL`` when set, else the default local daemon."""
    return knobs.service_url() or DEFAULT_URL


class ServiceError(ReproError):
    """The daemon rejected a request or a job failed terminally."""


class ServiceClient:
    """One daemon endpoint; methods mirror the HTTP routes one-to-one."""

    def __init__(self, url: str | None = None, *, timeout: float = 30.0) -> None:
        self.url = (url or default_service_url()).rstrip("/")
        self.timeout = timeout

    # -- raw HTTP -------------------------------------------------------------

    @contextmanager
    def _open(self, what: str, request: Any, timeout: float | None) -> Iterator[Any]:
        """``urlopen`` whose HTTP and transport failures raise :class:`ServiceError`."""
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                yield response
        except urllib.error.HTTPError as error:
            detail = error.read().decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except (ValueError, AttributeError):
                pass
            raise ServiceError(f"{what} -> {error.code}: {detail}") from error
        except urllib.error.URLError as error:
            raise ServiceError(
                f"cannot reach study service at {self.url}: {error.reason}"
            ) from error
        except (OSError, http.client.HTTPException) as error:
            # A daemon dropping mid-request (shutdown races) resets the
            # socket below urllib's URLError wrapping; so does a timeout.
            raise ServiceError(
                f"connection to study service at {self.url} failed: {error!r}"
            ) from error

    def _request(
        self, method: str, path: str, body: Mapping[str, Any] | None = None
    ) -> Any:
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            f"{self.url}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        with self._open(f"{method} {path}", request, self.timeout) as response:
            return json.loads(response.read())

    # -- the API --------------------------------------------------------------

    def healthy(self) -> bool:
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except ServiceError:
            return False

    def submit(
        self, study: "Study | Mapping[str, Any]", priority: int = 0
    ) -> dict[str, Any]:
        """Submit a study; returns the job snapshot (``["job"]`` is the id)."""
        if isinstance(study, Study):
            study = study.to_dict()
        return self._request(
            "POST", "/jobs", {"study": dict(study), "priority": priority}
        )

    def status(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/jobs")

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    def shutdown(self) -> dict[str, Any]:
        return self._request("POST", "/shutdown")

    def iter_cells(
        self, job_id: str, since: int = 0, timeout: float | None = None
    ) -> Iterator[dict[str, Any]]:
        """Stream a job's completed-cell events until the daemon ends the stream.

        The end of the stream does not prove that the job ended: a killed
        daemon ends it just as cleanly, so read the status afterwards.
        ``timeout`` bounds each wait for a line and, checked per line, the
        whole stream; running out raises :class:`ServiceError`.
        """
        path = f"/jobs/{job_id}/cells?since={since}"
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._open(f"GET {path}", f"{self.url}{path}", timeout) as response:
            for line in response:
                if deadline is not None and time.monotonic() > deadline:
                    raise ServiceError(f"job {job_id} still streaming after {timeout}s")
                if line.strip():
                    yield json.loads(line)

    def _stream_then_status(self, job_id: str, timeout: float | None) -> tuple:
        """Drain the job's cell stream, then read its status once."""
        events = list(self.iter_cells(job_id, timeout=timeout))
        snapshot = self.status(job_id)
        if snapshot["state"] not in TERMINAL_STATES:
            raise ServiceError(f"{job_id} is {snapshot['state']} but its stream ended")
        return events, snapshot

    def wait(self, job_id: str, timeout: float | None = None) -> dict[str, Any]:
        """Block until the job is terminal; returns the final snapshot."""
        return self._stream_then_status(job_id, timeout)[1]

    def result(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/result")

    # -- the drop-in path ------------------------------------------------------

    def run_study(
        self, study: Study, priority: int = 0, timeout: float | None = None
    ) -> StudyResult:
        """Submit, stream the cells, read the status once, and re-fold them.

        Raises :class:`ServiceError` for a failed job, a stream that ends
        before the job or misses a cell, and a run past ``timeout`` (see
        :meth:`iter_cells`).  The re-folded ``.table`` is bit-identical to
        the daemon's; rebuilt cells carry ``stats=None``, and the rest
        (quarantine/degrade flags, cache counters) is exact.
        """
        job_id = self.submit(study, priority=priority)["job"]
        events, snapshot = self._stream_then_status(job_id, timeout)
        if snapshot["state"] == "failed":
            raise ServiceError(
                f"job {job_id} failed: {snapshot.get('error', 'unknown error')}"
            )
        expanded = expand_study(study)
        if sorted(int(event["cell"]) for event in events) != list(range(len(expanded))):
            raise ServiceError(f"job {job_id}: incomplete cell stream")
        cells = [_cell_result_from_event(expanded, event) for event in events]
        result = fold_study_result(study, cells, cached=True)
        columns = dict.fromkeys(key for event in events for key in event["row"])
        if list(result.table.column_names) != list(columns):
            raise ServiceError(
                f"job {job_id}: local re-fold disagrees with the daemon's "
                "table columns — client and daemon are out of sync"
            )
        return result


def _cell_result_from_event(expanded, event: Mapping[str, Any]) -> CellResult:
    """Rebuild one :class:`CellResult` from a daemon cell event.

    The cell itself is re-expanded locally from the study (expansion is
    deterministic), the metrics ride the event verbatim, and a
    quarantined event's ``"Kind: message"`` string splits back into a
    :class:`CellFailure` (attempt counts don't survive the wire — they
    are not part of the table contract).
    """
    index = int(event["cell"])
    cell = expanded[index]
    failure = None
    if event.get("status") == "quarantined":
        kind, _, message = str(event.get("error", "")).partition(": ")
        failure = CellFailure(
            kind=kind, message=message, attempts=0, retryable=False
        )
    return CellResult(
        cell,
        None,
        dict(event.get("metrics") or {}),
        cached=bool(event.get("cached")),
        failure=failure,
        degraded=tuple(event.get("degraded") or ()),
        simulated=int(event.get("simulated") or 0),
    )


__all__ = [
    "DEFAULT_URL",
    "ServiceClient",
    "ServiceError",
    "default_service_url",
]
