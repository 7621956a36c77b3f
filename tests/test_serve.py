"""repro.serve end to end: admission, caching, shedding, HTTP, shutdown.

The service-level tests drive :class:`JobService` directly; the HTTP
tests run a real :class:`BackgroundServer` on a free port and speak
``http.client`` at it — the same stack ``python -m repro serve``
exposes.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import threading
import time

import pytest

from repro import telemetry, workloads
from repro.faults.policies import CircuitBreaker, CircuitOpenError
from repro.sched.core import BackpressureError
from repro.serve import BackgroundServer, EventLog, JobService
from repro.serve.http import render_metrics_text
from repro.serve.service import Job
from repro.workloads import WorkloadModeError

_SPEC = {"mode": "sched", "workload": "mapreduce",
         "params": {"workers": 2, "seed": 11}}


def _wait(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while job.state not in ("done", "failed", "cancelled"):
        if time.monotonic() > deadline:
            raise AssertionError(f"job {job.job_id} stuck in {job.state}")
        time.sleep(0.005)
    return job.state


@contextlib.contextmanager
def _temp_workload(name, **runners):
    workloads.register(name, **runners)
    try:
        yield
    finally:
        workloads.unregister(name)


@pytest.fixture
def make_service():
    """JobService factory that guarantees shutdown (and with it, that the
    service-owned telemetry session never leaks into other tests)."""
    created = []

    def make(**kwargs):
        service = JobService(**kwargs)
        created.append(service)
        return service

    yield make
    for service in created:
        service.shutdown()
    assert not telemetry.is_enabled()


def _serve_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("sched-serve")]


# -- the event log (shared plumbing) ------------------------------------------


def test_event_log_cursor_reads_and_wait():
    log = EventLog()
    log.emit("state", state="queued")
    log.emit("state", state="running")
    assert [e.data["state"] for e in log.after(0)] == ["queued", "running"]
    assert log.after(2) == []
    assert log.wait(0, timeout=0.1) is True        # already have news
    assert log.wait(2, timeout=0.05) is False      # nothing newer yet

    def late_emit():
        time.sleep(0.05)
        log.emit("state", state="done")

    threading.Thread(target=late_emit).start()
    assert log.wait(2, timeout=5.0) is True        # woken by the emit
    log.close()
    assert log.closed
    assert log.wait(3, timeout=0.1) is False       # closed: returns, not hangs


# -- the service core ---------------------------------------------------------


def test_a_terminal_state_is_never_seen_without_its_finish_time():
    # ``describe`` on another thread (GET /jobs/<id>) may run between any
    # two of the transition's writes; the state's own event is one such point.
    job = Job(job_id="j1", mode="sched", workload="mapreduce", params={},
              priority=0, key="k")
    seen = []
    job.events.emit = lambda kind, **data: seen.append(job.describe())
    for state in ("running", "done"):
        job._transition(state)
    assert [(v["state"], v["finished_s"] is None) for v in seen] == [
        ("running", True), ("done", False)]


def test_submit_runs_job_to_done(make_service):
    service = make_service(workers=2, backlog=8)
    job = service.submit(**_SPEC)
    assert job.state in ("queued", "running", "done")
    assert _wait(job) == "done"
    assert job.cached is False
    assert "wordcount" in job.result["summary"]
    assert job.result["mode"] == "sched"
    kinds = [e.data.get("state") for e in job.events.snapshot()]
    assert kinds == ["queued", "running", "done"]
    assert job.events.closed


def test_warm_resubmit_is_served_from_cache(make_service):
    service = make_service(workers=2, backlog=8)
    cold = service.submit(**_SPEC)
    assert _wait(cold) == "done"
    warm = service.submit(**_SPEC)
    assert warm.state == "done"                    # instantly terminal
    assert warm.cached is True
    assert warm.result == cold.result
    assert warm.handle is None                     # nothing was scheduled
    metrics = service.metrics_snapshot()
    assert metrics["serve.jobs.cached"] == 1.0
    assert metrics["serve.jobs.submitted"] == 2.0
    assert metrics["serve.jobs.completed"] == 1.0


def test_submit_validates_before_admitting(make_service):
    service = make_service(workers=1, backlog=4)
    with pytest.raises(KeyError):
        service.submit(mode="sched", workload="no_such")
    with pytest.raises(WorkloadModeError):
        service.submit(mode="sched", workload="stencil")
    with pytest.raises(ValueError, match="unknown parameter"):
        service.submit(mode="sched", workload="mapreduce",
                       params={"threads": 2})
    assert service.jobs() == []                    # nothing was recorded


def test_full_backlog_rejects_with_backpressure(make_service):
    gate = threading.Event()

    def gated(executor, workers, seed):
        gate.wait(60.0)
        return f"gated seed={seed}", []

    with _temp_workload("tmp_gate", sched=gated):
        service = make_service(workers=1, backlog=1)
        running = service.submit("sched", "tmp_gate", {"seed": 1})
        deadline = time.monotonic() + 30.0
        while running.state != "running":          # occupy the one worker
            assert time.monotonic() < deadline
            time.sleep(0.005)
        queued = service.submit("sched", "tmp_gate", {"seed": 2})
        with pytest.raises(BackpressureError):
            service.submit("sched", "tmp_gate", {"seed": 3})
        metrics = service.metrics_snapshot()
        assert metrics["serve.rejected.backpressure"] == 1.0
        gate.set()
        assert _wait(running) == "done"
        assert _wait(queued) == "done"


def test_open_breaker_sheds_executions_but_serves_cache_hits(make_service):
    def boom(executor, workers, seed):
        raise RuntimeError("boom")

    with _temp_workload("tmp_boom", sched=boom):
        service = make_service(
            workers=1, backlog=8,
            breaker=CircuitBreaker(failure_threshold=1, reset_timeout_s=60.0,
                                   name="test"),
        )
        good = service.submit(**_SPEC)             # fill the cache first
        assert _wait(good) == "done"
        failed = service.submit("sched", "tmp_boom", {"seed": 1})
        assert _wait(failed) == "failed"
        assert "RuntimeError" in failed.error
        assert service.breaker.state == "open"
        with pytest.raises(CircuitOpenError):      # new execution: shed
            service.submit("sched", "tmp_boom", {"seed": 2})
        warm = service.submit(**_SPEC)             # cache hit: still served
        assert warm.cached is True and warm.state == "done"
        metrics = service.metrics_snapshot()
        assert metrics["serve.rejected.breaker"] == 1.0
        assert metrics["serve.jobs.failed"] == 1.0


def test_cancel_queued_job_never_runs(make_service):
    gate = threading.Event()
    ran = []

    def gated(executor, workers, seed):
        gate.wait(60.0)
        ran.append(seed)
        return f"gated seed={seed}", []

    with _temp_workload("tmp_gate2", sched=gated):
        service = make_service(workers=1, backlog=8)
        blocker = service.submit("sched", "tmp_gate2", {"seed": 1})
        victim = service.submit("sched", "tmp_gate2", {"seed": 2})
        assert service.cancel(victim.job_id) is True
        assert victim.state == "cancelled"
        assert victim.events.closed
        gate.set()
        assert _wait(blocker) == "done"
        service.shutdown()
        assert ran == [1]                          # the victim never executed


def test_graceful_shutdown_drains_running_and_cancels_queued(make_service):
    gate = threading.Event()

    def gated(executor, workers, seed):
        gate.wait(60.0)
        return f"gated seed={seed}", []

    with _temp_workload("tmp_gate3", sched=gated):
        service = make_service(workers=1, backlog=8)
        running = service.submit("sched", "tmp_gate3", {"seed": 1})
        deadline = time.monotonic() + 30.0
        while running.state != "running":
            assert time.monotonic() < deadline
            time.sleep(0.005)
        queued = [service.submit("sched", "tmp_gate3", {"seed": s})
                  for s in (2, 3)]
        releaser = threading.Timer(0.15, gate.set)
        releaser.start()
        summary = service.shutdown()
        releaser.join()
        assert summary == {"cancelled": 2, "drained": 1}
        assert running.state == "done"             # in-flight job completed
        assert all(job.state == "cancelled" for job in queued)
        assert all(job.events.closed for job in queued)
        assert _serve_threads() == []              # no leaked workers
        assert service.shutdown() == {"cancelled": 0, "drained": 0}  # idempotent
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit(**_SPEC)


# -- the HTTP front-end -------------------------------------------------------


def _request(port, method, path, body=None, raw_body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = raw_body
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
        if payload is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, payload, headers)
        response = conn.getresponse()
        raw = response.read()
        if response.headers.get_content_type() == "application/json":
            return response.status, json.loads(raw.decode("utf-8"))
        return response.status, raw.decode("utf-8", "replace")
    finally:
        conn.close()


def _poll_done(port, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = _request(port, "GET", f"/jobs/{job_id}")
        assert status == 200
        if body["state"] in ("done", "failed", "cancelled"):
            return body
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never finished")


@pytest.fixture
def server(make_service):
    service = make_service(workers=2, backlog=16)
    with BackgroundServer(service) as background:
        yield background
    assert _serve_threads() == []


def test_http_submit_poll_result_and_warm_cache_hit(server):
    port = server.port
    status, body = _request(port, "POST", "/jobs", body=_SPEC)
    assert status == 202 and body["state"] in ("queued", "running")
    job_id = body["id"]
    final = _poll_done(port, job_id)
    assert final["state"] == "done" and final["cached"] is False

    status, body = _request(port, "GET", f"/jobs/{job_id}/result")
    assert status == 200
    assert "wordcount" in body["result"]["summary"]

    # The acceptance path: identical resubmit is an immediate cache hit,
    # visible both on the response and in the scraped metrics counters.
    status, warm = _request(port, "POST", "/jobs", body=_SPEC)
    assert status == 200 and warm["cached"] is True and warm["state"] == "done"
    status, metrics = _request(port, "GET", "/metrics?format=json")
    assert status == 200
    assert metrics["serve.jobs.cached"] == 1.0
    assert metrics["serve.jobs.submitted"] == 2.0

    status, text = _request(port, "GET", "/metrics")
    assert status == 200
    assert "serve_jobs_cached 1.0" in text
    assert "serve_job_latency_us_count" in text    # histogram exposition


def test_concurrent_resubmits_of_a_finished_spec_are_all_cache_hits(server):
    port = server.port
    status, body = _request(port, "POST", "/jobs", body=_SPEC)
    assert status == 202
    assert _poll_done(port, body["id"])["state"] == "done"

    clients = 16
    barrier = threading.Barrier(clients)
    replies = [None] * clients

    def client(index):
        barrier.wait()
        replies[index] = _request(port, "POST", "/jobs", body=_SPEC)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert [(status, reply["cached"], reply["state"])
            for status, reply in replies] == [(200, True, "done")] * clients
    status, metrics = _request(port, "GET", "/metrics?format=json")
    assert status == 200
    assert metrics["serve.jobs.cached"] == clients
    assert metrics["serve.jobs.submitted"] == clients + 1


def test_http_streaming_follow_ends_at_terminal_state(server):
    status, body = _request(server.port, "POST", "/jobs", body={
        "mode": "trace", "workload": "barrier", "params": {"threads": 4}})
    assert status in (200, 202)
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        conn.request("GET", f"/jobs/{body['id']}?follow=1")
        response = conn.getresponse()
        assert response.getheader("Transfer-Encoding") == "chunked"
        lines = response.read().decode("utf-8").strip().splitlines()
    finally:
        conn.close()
    records = [json.loads(line) for line in lines]
    assert records[0]["kind"] == "snapshot"
    states = [r["state"] for r in records if r["kind"] == "state"]
    assert states[-1] == "done"
    assert records[-1] == {"kind": "end", "state": "done"}


def test_http_error_mapping(server):
    port = server.port
    assert _request(port, "POST", "/jobs",
                    body={"workload": "no_such"})[0] == 404
    assert _request(port, "POST", "/jobs",
                    body={"workload": "stencil", "mode": "sched"})[0] == 400
    assert _request(port, "POST", "/jobs",
                    body={"workload": "mapreduce", "mode": "sched",
                          "params": {"bogus": 1}})[0] == 400
    assert _request(port, "POST", "/jobs", raw_body=b"{not json")[0] == 400
    assert _request(port, "POST", "/jobs", body=[1, 2])[0] == 400
    assert _request(port, "GET", "/jobs/j999")[0] == 404
    assert _request(port, "GET", "/nope")[0] == 404
    status, body = _request(port, "DELETE", "/jobs/j999")
    assert status == 404                           # unknown id wins over verb


def test_http_backpressure_and_workloads_listing(make_service):
    gate = threading.Event()

    def gated(executor, workers, seed):
        gate.wait(60.0)
        return f"gated seed={seed}", []

    with _temp_workload("tmp_gate_http", sched=gated):
        service = make_service(workers=1, backlog=1)
        with BackgroundServer(service) as background:
            port = background.port

            def spec(seed):
                return {"mode": "sched", "workload": "tmp_gate_http",
                        "params": {"seed": seed}}

            status, running = _request(port, "POST", "/jobs", body=spec(1))
            assert status == 202
            deadline = time.monotonic() + 30.0
            while _request(port, "GET", f"/jobs/{running['id']}")[1][
                    "state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert _request(port, "POST", "/jobs", body=spec(2))[0] == 202
            status, body = _request(port, "POST", "/jobs", body=spec(3))
            assert status == 429 and "full" in body["error"]

            status, listing = _request(port, "GET", "/workloads")
            assert status == 200
            by_name = {row["name"]: row for row in listing}
            assert "tmp_gate_http" in by_name
            assert by_name["mapreduce"]["modes"] == ["trace", "chaos", "sched"]

            status, health = _request(port, "GET", "/healthz")
            assert status == 200
            assert health["backlog"] == 1 and health["breaker"] == "closed"
            gate.set()
            _poll_done(port, running["id"])


def test_http_cancel_endpoint(make_service):
    gate = threading.Event()

    def gated(executor, workers, seed):
        gate.wait(60.0)
        return f"gated seed={seed}", []

    with _temp_workload("tmp_gate_cancel", sched=gated):
        service = make_service(workers=1, backlog=8)
        with BackgroundServer(service) as background:
            port = background.port
            spec = {"mode": "sched", "workload": "tmp_gate_cancel"}
            _, blocker = _request(port, "POST", "/jobs",
                                  body={**spec, "params": {"seed": 1}})
            _, victim = _request(port, "POST", "/jobs",
                                 body={**spec, "params": {"seed": 2}})
            status, body = _request(port, "POST",
                                    f"/jobs/{victim['id']}/cancel")
            assert status == 200 and body["cancelled"] is True
            assert _request(port, "GET", f"/jobs/{victim['id']}")[1][
                "state"] == "cancelled"
            gate.set()
            _poll_done(port, blocker["id"])


# -- telemetry: metrics, not traces -------------------------------------------


def test_service_session_collects_metrics_and_keeps_no_trace(make_service):
    # A trace grows with every job; a long-lived service must not keep one.
    service = make_service(workers=2, backlog=8)
    jobs = [service.submit("sched", name, {"seed": 3})
            for name in ("mapreduce", "drugdesign", "stencil_sched", "openmp")]
    assert [_wait(job) for job in jobs] == ["done"] * 4
    assert telemetry.get_tracer() is None
    snapshot = service.metrics_snapshot()
    assert snapshot["serve.jobs.completed"] == 4
    assert snapshot["sched.tasks.submitted"] > 0     # from inside the jobs


def test_serving_executor_keeps_no_sched_events(make_service):
    # The serving executor's event log is never read; it must not grow
    # with every job.
    service = make_service(workers=2, backlog=8)
    jobs = [service.submit("sched", "mapreduce", {"seed": seed})
            for seed in range(6)]
    assert [_wait(job) for job in jobs] == ["done"] * 6
    assert service.executor.events == []


def test_service_inside_a_callers_session_keeps_its_spans(make_service):
    with telemetry.session() as session:
        service = make_service(workers=2, backlog=8)
        assert _wait(service.submit(**_SPEC)) == "done"
        service.shutdown()                   # the serve.job span has closed
        assert telemetry.get_tracer() is session.tracer
    names = {span.name for span in session.tracer.spans}
    assert {"serve.job", "mr.job"} <= names


def test_render_metrics_text_histogram_exposition():
    text = render_metrics_text({
        "a.counter": 3.0,
        "b.hist": {"count": 3, "sum": 60.0, "min": 10.0, "max": 30.0,
                   "boundaries": [15.0, 25.0], "bucket_counts": [1, 1, 1]},
    })
    lines = text.splitlines()
    assert "a_counter 3.0" in lines
    assert 'b_hist_bucket{le="15.0"} 1' in lines
    assert 'b_hist_bucket{le="25.0"} 2' in lines
    assert 'b_hist_bucket{le="+Inf"} 3' in lines
    assert "b_hist_count 3" in lines
    assert "b_hist_sum 60.0" in lines
