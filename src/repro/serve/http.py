"""Stdlib-only asyncio HTTP front-end for :class:`JobService`.

A deliberately small HTTP/1.1 implementation on ``asyncio`` streams —
no framework, one connection per request (``Connection: close``), JSON
bodies — because the interesting machinery (admission, shedding,
memoisation, streaming) lives in the service and the protocol layer
should stay legible end to end.

Endpoints
---------
- ``POST /jobs`` — body ``{"workload": name, "mode": "sched"|"trace"|
  "chaos"|"pipeline", "params": {...}, "priority": n, "on_complete":
  {spec}}``; 202 with the job status, or 200 immediately when the
  request is a cache hit.  400 bad request, 404 unknown workload, 429
  backlog full, 503 breaker open.  ``on_complete`` arms a durable
  follow-up job submitted when this one reaches a terminal state.
- ``POST /jobs/batch`` — body ``{"jobs": [spec, ...], "priority": n}``;
  admits the whole list atomically through the scheduler's batch path:
  207 Multi-Status with every job's status on success, 429 (or 503)
  with ``"admitted": 0`` when the backlog cannot take them all — never
  a partial admission.
- ``GET /jobs`` — all jobs, oldest first.
- ``GET /jobs/<id>`` — one job's status; with ``?follow=1`` a chunked
  ``application/x-ndjson`` stream of its status events that ends when
  the job reaches a terminal state.
- ``GET /jobs/<id>/result`` — the result payload (409 until terminal).
- ``POST /jobs/<id>/cancel`` — cancel a queued job.
- ``GET /workloads`` — the unified registry (names, modes, params).
- ``GET /metrics`` — Prometheus-style text exposition of the telemetry
  registry (``?format=json`` for the raw snapshot).
- ``GET /healthz`` — liveness + queue depth + breaker state.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any
from urllib.parse import parse_qs, unquote

from repro import workloads
from repro.faults.policies import CircuitOpenError
from repro.sched.core import BackpressureError
from repro.serve.service import TERMINAL_STATES, JobService
from repro.telemetry import instrument

__all__ = ["ServeApp", "BackgroundServer", "render_metrics_text"]

_REASONS = {
    200: "OK", 202: "Accepted", 207: "Multi-Status", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: How often the chunked status stream polls a job's event log.
_FOLLOW_POLL_S = 0.02


def _metric_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    return "".join(out)


def render_metrics_text(snapshot: dict[str, Any]) -> str:
    """Prometheus-style text exposition of a metrics snapshot.

    Counters/gauges render as ``name value``; histograms as cumulative
    ``_bucket{le=...}`` lines plus ``_count`` and ``_sum`` — enough for
    any Prometheus-shaped scraper and trivially greppable in CI.
    """
    lines: list[str] = []
    for name, value in snapshot.items():        # snapshot() is sorted
        metric = _metric_name(name)
        if isinstance(value, dict):             # histogram snapshot
            if not value:
                continue
            cumulative = 0
            bounds = [str(b) for b in value["boundaries"]] + ["+Inf"]
            for bound, count in zip(bounds, value["bucket_counts"]):
                cumulative += count
                lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
            lines.append(f"{metric}_count {value['count']}")
            lines.append(f"{metric}_sum {value['sum']}")
        else:
            lines.append(f"{metric} {value}")
    return "\n".join(lines) + "\n"


class _Request:
    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method: str, path: str, query: dict[str, list[str]],
                 headers: dict[str, str], body: bytes) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        if not self.body:
            return {}
        return json.loads(self.body.decode("utf-8"))

    def flag(self, name: str) -> bool:
        values = self.query.get(name, [])
        return bool(values) and values[-1] not in ("0", "false", "no")


class ServeApp:
    """Routes HTTP requests onto a :class:`JobService`."""

    def __init__(self, service: JobService) -> None:
        self.service = service

    # -- protocol plumbing ---------------------------------------------------

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        started = time.perf_counter()
        route = "?"
        status = 500
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            route, status = await self._dispatch(request, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        except Exception as exc:  # noqa: BLE001 - protocol backstop
            try:
                status = 500
                await self._respond(writer, 500, {"error": repr(exc)})
            except ConnectionError:
                return
        finally:
            instrument.observe_us(
                f"serve.latency.{_metric_name(route)}",
                (time.perf_counter() - started) * 1e6,
            )
            instrument.inc(f"serve.requests.{status}")
            try:
                writer.close()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return _Request(method, unquote(path), parse_qs(query), headers, body)

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        content_type: str = "application/json",
    ) -> int:
        if isinstance(payload, (dict, list)):
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        else:
            body = str(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        return status

    # -- routing -------------------------------------------------------------

    async def _dispatch(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> tuple[str, int]:
        method, path = request.method, request.path.rstrip("/") or "/"
        with instrument.span("serve.request", category="serve",
                             method=method, path=path):
            if path == "/jobs" and method == "POST":
                return "POST /jobs", await self._post_job(request, writer)
            if path == "/jobs/batch" and method == "POST":
                return ("POST /jobs/batch",
                        await self._post_batch(request, writer))
            if path == "/jobs" and method == "GET":
                jobs = [job.describe() for job in self.service.jobs()]
                return "GET /jobs", await self._respond(writer, 200, jobs)
            if path.startswith("/jobs/"):
                return await self._job_routes(request, writer, method, path)
            if path == "/workloads" and method == "GET":
                listing = [
                    {"name": entry.name, "modes": list(entry.modes),
                     "params": {m: list(workloads.MODE_PARAMS[m])
                                for m in entry.modes}}
                    for entry in workloads.entries()
                ]
                return "GET /workloads", await self._respond(writer, 200, listing)
            if path == "/metrics" and method == "GET":
                snapshot = self.service.metrics_snapshot()
                if request.query.get("format", [""])[-1] == "json":
                    return "GET /metrics", await self._respond(writer, 200, snapshot)
                return "GET /metrics", await self._respond(
                    writer, 200, render_metrics_text(snapshot),
                    content_type="text/plain; charset=utf-8",
                )
            if path == "/healthz" and method == "GET":
                return "GET /healthz", await self._respond(
                    writer, 200, self.service.stats()
                )
            return (
                f"{method} {path}",
                await self._respond(writer, 404, {"error": f"no route {path}"}),
            )

    async def _post_job(self, request: _Request,
                        writer: asyncio.StreamWriter) -> int:
        try:
            spec = request.json()
        except (ValueError, UnicodeDecodeError) as exc:
            return await self._respond(writer, 400,
                                       {"error": f"bad JSON body: {exc}"})
        if not isinstance(spec, dict) or "workload" not in spec:
            return await self._respond(
                writer, 400, {"error": 'body must be {"workload": ..., '
                                       '"mode": ..., "params": {...}}'})
        try:
            job = self.service.submit(
                mode=spec.get("mode", "sched"),
                workload=str(spec["workload"]),
                params=spec.get("params") or {},
                priority=int(spec.get("priority", 0)),
                on_complete=spec.get("on_complete"),
            )
        except KeyError as exc:
            return await self._respond(
                writer, 404, {"error": f"unknown workload {exc.args[0]!r}"})
        except BackpressureError as exc:
            return await self._respond(writer, 429, {"error": str(exc)})
        except CircuitOpenError as exc:
            return await self._respond(writer, 503, {"error": str(exc)})
        except (TypeError, ValueError) as exc:     # includes WorkloadModeError
            return await self._respond(writer, 400, {"error": str(exc)})
        status = 200 if job.cached else 202
        return await self._respond(writer, status, job.describe())

    async def _post_batch(self, request: _Request,
                          writer: asyncio.StreamWriter) -> int:
        try:
            spec = request.json()
        except (ValueError, UnicodeDecodeError) as exc:
            return await self._respond(writer, 400,
                                       {"error": f"bad JSON body: {exc}"})
        if (not isinstance(spec, dict)
                or not isinstance(spec.get("jobs"), list)
                or not spec["jobs"]):
            return await self._respond(
                writer, 400,
                {"error": 'body must be {"jobs": [spec, ...], '
                          '"priority": n}', "admitted": 0})
        try:
            jobs = self.service.submit_batch(
                spec["jobs"], priority=int(spec.get("priority", 0)),
            )
        except KeyError as exc:
            return await self._respond(
                writer, 404,
                {"error": f"unknown workload {exc.args[0]!r}", "admitted": 0})
        except BackpressureError as exc:
            return await self._respond(writer, 429,
                                       {"error": str(exc), "admitted": 0})
        except CircuitOpenError as exc:
            return await self._respond(writer, 503,
                                       {"error": str(exc), "admitted": 0})
        except (TypeError, ValueError) as exc:
            return await self._respond(writer, 400,
                                       {"error": str(exc), "admitted": 0})
        return await self._respond(writer, 207, {
            "admitted": len(jobs),
            "jobs": [job.describe() for job in jobs],
        })

    async def _job_routes(
        self, request: _Request, writer: asyncio.StreamWriter,
        method: str, path: str,
    ) -> tuple[str, int]:
        parts = path.split("/")[2:]                 # after "/jobs/"
        try:
            job = self.service.get(parts[0])
        except KeyError:
            return (
                f"{method} /jobs/{{id}}",
                await self._respond(writer, 404,
                                    {"error": f"unknown job {parts[0]!r}"}),
            )
        action = parts[1] if len(parts) > 1 else ""
        if method == "GET" and action == "":
            if request.flag("follow"):
                return ("GET /jobs/{id}?follow",
                        await self._stream_job(job, writer))
            return ("GET /jobs/{id}",
                    await self._respond(writer, 200, job.describe()))
        if method == "GET" and action == "result":
            if job.state == "done":
                return ("GET /jobs/{id}/result", await self._respond(
                    writer, 200,
                    {"id": job.job_id, "state": job.state,
                     "cached": job.cached, "result": job.result}))
            if job.state in TERMINAL_STATES:        # failed / cancelled
                return ("GET /jobs/{id}/result", await self._respond(
                    writer, 409,
                    {"id": job.job_id, "state": job.state, "error": job.error}))
            return ("GET /jobs/{id}/result", await self._respond(
                writer, 409,
                {"id": job.job_id, "state": job.state,
                 "error": "job not finished; poll again or use ?follow=1"}))
        if method == "POST" and action == "cancel":
            ok = self.service.cancel(job.job_id)
            return ("POST /jobs/{id}/cancel", await self._respond(
                writer, 200 if ok else 409,
                {"id": job.job_id, "state": job.state, "cancelled": ok}))
        return (f"{method} /jobs/{{id}}/{action}", await self._respond(
            writer, 405, {"error": f"unsupported {method} on {path}"}))

    async def _stream_job(self, job, writer: asyncio.StreamWriter) -> int:
        """Chunked NDJSON status stream, one line per event, ending when
        the job is terminal — the polling client's push alternative."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )

        def chunk(record: dict) -> bytes:
            data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
            return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"

        writer.write(chunk({"kind": "snapshot", **job.describe()}))
        await writer.drain()
        cursor = 0
        while True:
            fresh = job.events.after(cursor)
            for event in fresh:
                cursor = event.seq
                writer.write(chunk(event.as_dict()))
            if fresh:
                await writer.drain()
            if job.state in TERMINAL_STATES and not job.events.after(cursor):
                break
            await asyncio.sleep(_FOLLOW_POLL_S)
        writer.write(chunk({"kind": "end", "state": job.state}))
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return 200


class BackgroundServer:
    """An in-process server on its own event-loop thread.

    The shape both the tests and the repo benchmark's ``serve_mix``
    need: start, read the bound port (``port=0`` picks a free one),
    hammer it from client threads, stop.  The CLI path (``python -m repro serve``) runs the
    loop in the foreground instead — see ``repro.cli``.
    """

    def __init__(self, service: JobService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.app = ServeApp(service)
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None

    def start(self) -> "BackgroundServer":
        started = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                self._server = loop.run_until_complete(asyncio.start_server(
                    self.app.handle, self.host, self.port))
                self.port = self._server.sockets[0].getsockname()[1]
            except BaseException as exc:  # noqa: BLE001 - surfaced to caller
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                self._server.close()
                loop.run_until_complete(self._server.wait_closed())
                loop.close()

        self._thread = threading.Thread(target=run, name="serve-http",
                                        daemon=True)
        self._thread.start()
        started.wait()
        if failure:
            raise failure[0]
        return self

    def stop(self, shutdown_service: bool = True) -> dict[str, int]:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        if shutdown_service:
            return self.service.shutdown()
        return {"cancelled": 0, "drained": 0}

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.stop()
