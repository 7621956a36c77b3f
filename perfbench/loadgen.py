"""Open-loop HTTP load for the ``serve_mix`` workload.

The clients of ``python -m repro serve`` are independent, so the load is
an open loop: requests are due on a seeded Poisson schedule and are sent
when due, however long earlier requests take.  Latency runs from a
request's *due* time to the job's ``finished_s`` as ``GET /jobs/<id>``
reports it, so a stall in the sender shows in every request it delays,
and the poll interval does not quantise latency (both clocks are this
process's ``time.time``).

One sender thread and one poller thread, each with one connection at a
time (the server closes every connection), keep the generator within
the box's two cores.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import queue
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Request mix: sched-mode workloads and how many of each are in every
#: deck of ten requests.  The first three take a few milliseconds when
#: called directly, ``openmp`` several times that, so HTTP, admission,
#: queueing, cache and store costs dominate.
MIX = (("mapreduce", 2), ("drugdesign", 2), ("stencil_sched", 2), ("openmp", 1))

#: Requests per deck that repeat an earlier request's spec: 30%.
REPEATS = 3

#: A repeat copies a request due at least this long before it, so the
#: original has finished and the repeat is a cache hit.
REPEAT_AFTER_S = 0.5

#: Pause between the poller's sweeps over outstanding jobs.
POLL_S = 0.005

#: How long the poller may take, after the last send, to settle the
#: outstanding jobs before they count as failed.
DRAIN_S = 30.0

#: Generator threads and connections (sender + poller).
THREADS = 2

TERMINAL = ("done", "failed", "cancelled")


@dataclass
class Request:
    """One scheduled request and everything observed about it."""

    index: int
    due_s: float                       # offset from the schedule start
    spec: dict[str, Any]
    repeat_of: int | None = None
    due_wall: float = 0.0
    sent_wall: float = 0.0
    status: int = 0
    job_id: str = ""
    cached: bool = False
    state: str = ""
    created_s: float | None = None
    started_s: float | None = None
    finished_s: float | None = None
    seen_wall: float | None = None
    polls: int = 0
    payload: Any = None
    error: str = ""

    @property
    def late_s(self) -> float:
        return self.sent_wall - self.due_wall

    @property
    def latency_s(self) -> float | None:
        """Due time to the job's ``finished_s``; None if it never finished."""
        if self.finished_s is None or self.state != "done":
            return None
        return self.finished_s - self.due_wall


def make_schedule(rng: random.Random, rate_per_s: float,
                  seconds: float) -> list[Request]:
    """Poisson arrivals at ``rate_per_s`` over ``seconds``, conditioned on
    their count: ``rate * seconds`` arrival times drawn uniformly and
    sorted, so runs with different seeds offer the same load.  Kinds come
    from shuffled decks of ten (:data:`MIX` plus :data:`REPEATS`), so every
    run has the same mix.  A pure function of the generator's state."""
    offsets = sorted(rng.uniform(0.0, seconds)
                     for _ in range(max(1, round(rate_per_s * seconds))))
    deck: list[str] = []
    out: list[Request] = []
    for offset in offsets:
        if not deck:
            deck = ["repeat"] * REPEATS + [
                name for name, count in MIX for _ in range(count)]
            rng.shuffle(deck)
        kind = deck.pop()
        fresh = [r for r in out if r.repeat_of is None]
        if kind == "repeat" and fresh:
            settled = [r for r in fresh if r.due_s <= offset - REPEAT_AFTER_S]
            earlier = rng.choice(settled or fresh)
            out.append(Request(len(out), offset, dict(earlier.spec),
                               repeat_of=earlier.index))
            continue
        name = kind if kind != "repeat" else MIX[0][0]
        out.append(Request(len(out), offset, {
            "workload": name, "mode": "sched",
            "params": {"seed": rng.randrange(1, 2**31)},
        }))
    return out


def run_open_loop(requests: list[Request], start_wall: float,
                  send: Callable[[Request], None],
                  clock: Callable[[], float] = time.time,
                  sleep: Callable[[float], None] = time.sleep) -> None:
    """Send each request at ``start_wall + due_s``; a late send never
    moves the due times of the requests after it."""
    for request in requests:
        request.due_wall = start_wall + request.due_s
        wait = request.due_wall - clock()
        if wait > 0:
            sleep(wait)
        request.sent_wall = clock()
        send(request)


def http_json(port: int, method: str, path: str,
              body: dict | None = None) -> tuple[int, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, payload, headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


class Client:
    """Sender + poller over one server; ``recorder`` (optional) gets a
    span per client round trip."""

    def __init__(self, port: int, recorder: Any = None) -> None:
        self.port = port
        self.recorder = recorder
        self._posted: queue.Queue[Request | None] = queue.Queue()

    def _span(self, name: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)

    def _absorb(self, request: Request, status: dict[str, Any]) -> None:
        request.state = status["state"]
        request.created_s = status["created_s"]
        request.started_s = status["started_s"]
        request.finished_s = status["finished_s"]

    def send(self, request: Request) -> None:
        with self._span("serve.http.post"):
            code, body = http_json(self.port, "POST", "/jobs", request.spec)
        request.status = code
        if code not in (200, 202):
            request.error = f"http {code}: {body}"
            return
        request.job_id = body["id"]
        request.cached = bool(body["cached"])
        self._absorb(request, body)
        self._posted.put(request)

    def _poll_once(self, request: Request) -> bool:
        """Advance one outstanding request; True once it is settled."""
        if request.state not in TERMINAL:
            with self._span("serve.http.get"):
                code, body = http_json(self.port, "GET", f"/jobs/{request.job_id}")
            request.polls += 1
            if code != 200:
                request.error = f"poll http {code}"
                return True
            self._absorb(request, body)
            if request.state not in TERMINAL:
                return False
        request.seen_wall = time.time()
        if request.state == "done":
            with self._span("serve.http.result"):
                code, body = http_json(self.port, "GET",
                                       f"/jobs/{request.job_id}/result")
            if code == 200:
                request.payload = body["result"]
            else:
                request.error = f"result http {code}"
        else:
            request.error = f"job {request.state}"
        return True

    def _poll_loop(self, deadline: list[float]) -> None:
        outstanding: list[Request] = []
        sending = True
        while sending or outstanding:
            while True:
                try:
                    item = self._posted.get_nowait()
                except queue.Empty:
                    break
                if item is None:
                    sending = False
                else:
                    outstanding.append(item)
            outstanding = [r for r in outstanding if not self._poll_once(r)]
            if time.time() > deadline[0]:
                for request in outstanding:
                    request.error = "not finished before the deadline"
                return
            if sending or outstanding:
                time.sleep(POLL_S)

    def run(self, requests: list[Request]) -> float:
        """Play the schedule; returns the wall-clock start of the schedule."""
        deadline = [float("inf")]
        poller = threading.Thread(target=self._poll_loop, args=(deadline,),
                                  name="perfbench-poller")
        poller.start()
        start_wall = time.time() + 0.05
        try:
            run_open_loop(requests, start_wall, self.send)
        finally:
            deadline[0] = time.time() + DRAIN_S
            self._posted.put(None)
            poller.join()
        return start_wall
