"""Unit tests for the telemetry subsystem: spans, metrics, sessions.

The concurrency test is the load-bearing one: 8 threads trace
simultaneously and the reconstructed span tree must be exactly the
shape the program expressed — per-thread stacks may never bleed into
each other.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import telemetry
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.telemetry.spans import Tracer


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    telemetry.disable()
    yield
    telemetry.disable()


# -- tracer ------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_single_thread(self):
        tracer = Tracer()
        with tracer.span("outer", x=1):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        roots = tracer.span_tree()
        assert len(roots) == 1
        outer = roots[0]
        assert outer.span.name == "outer"
        assert outer.span.args == {"x": 1}
        assert [c.span.name for c in outer.children] == ["middle", "sibling"]
        assert [c.span.name for c in outer.children[0].children] == ["inner"]

    def test_span_timing_is_monotonic_and_positive(self):
        tracer = Tracer()
        with tracer.span("timed"):
            time.sleep(0.01)
        (span,) = tracer.spans
        assert span.end_us is not None
        assert span.duration_us >= 10_000 * 0.5   # sleep, minus timer slop
        assert span.start_us >= 0.0

    def test_tree_reconstruction_under_8_concurrent_threads(self):
        """Exactly the programmed shape: one root, 8 workers, each worker
        with two children, the first of which has one grandchild."""
        tracer = Tracer()
        n_threads = 8
        start_gate = threading.Barrier(n_threads)

        with tracer.span("main") as main_span:
            main_id = main_span.span_id

            def worker(tid: int) -> None:
                tracer.set_thread_identity(tid, f"w-{tid}", process="test")
                start_gate.wait()
                with tracer.span(f"worker-{tid}", parent_id=main_id):
                    with tracer.span(f"first-{tid}"):
                        with tracer.span(f"grandchild-{tid}"):
                            pass
                    with tracer.span(f"second-{tid}"):
                        pass

            threads = [
                threading.Thread(target=worker, args=(tid,))
                for tid in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        roots = tracer.span_tree()
        assert len(roots) == 1
        main = roots[0]
        assert main.span.name == "main"
        assert len(main.children) == n_threads
        seen = set()
        for worker_node in main.children:
            tid = worker_node.span.tid
            seen.add(worker_node.span.name)
            assert worker_node.span.process == "test"
            assert [c.span.name for c in worker_node.children] == [
                f"first-{tid}", f"second-{tid}",
            ]
            first, second = worker_node.children
            assert [g.span.name for g in first.children] == [f"grandchild-{tid}"]
            assert second.children == []
            # Every span of this worker carries this worker's identity.
            for span in worker_node.walk():
                assert span.tid == tid
        assert seen == {f"worker-{tid}" for tid in range(n_threads)}

    def test_concurrent_span_ids_unique(self):
        tracer = Tracer()

        def hammer() -> None:
            for _ in range(200):
                with tracer.span("s"):
                    pass

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.spans
        assert len(spans) == 8 * 200
        assert len({s.span_id for s in spans}) == len(spans)

    def test_instant_and_counter_events(self):
        tracer = Tracer()
        tracer.instant("boom", detail="x")
        tracer.counter("inflight", 3)
        tracer.counter("inflight", 5)
        assert [e.name for e in tracer.events] == ["boom", "inflight", "inflight"]
        assert tracer.events_named("inflight")[-1].args == {"value": 5}

    def test_ensure_thread_assigns_compact_tids_per_process(self):
        tracer = Tracer()
        gate = threading.Barrier(4)   # all alive at once: 4 distinct idents

        def worker(i: int) -> None:
            gate.wait()
            tracer.ensure_thread("pool")
            with tracer.span("w"):
                pass
            tracer.ensure_thread("pool")    # idempotent
            gate.wait()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tids = sorted({s.tid for s in tracer.spans})
        assert tids == [0, 1, 2, 3]
        assert {s.process for s in tracer.spans} == {"pool"}


# -- metrics -----------------------------------------------------------------


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        counter.inc()
        counter.inc(4)
        assert registry.counter("requests").value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.add(-2)
        assert gauge.value == 5

    def test_histogram_buckets(self):
        histogram = Histogram("lat", boundaries=(10.0, 100.0))
        for value in (1, 5, 50, 500, 5000):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.bucket_counts() == (2, 1, 2)
        assert histogram.sum == 5556
        snap = histogram.snapshot()
        assert snap["min"] == 1 and snap["max"] == 5000

    def test_histogram_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("bad", boundaries=())
        with pytest.raises(ValueError):
            Histogram("bad", boundaries=(5.0, 5.0))

    def test_registry_rejects_kind_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_concurrent_counting_is_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")

        def bump() -> None:
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000

    def test_null_metrics_accepts_everything(self):
        null = NullMetrics()
        null.counter("a").inc()
        null.gauge("b").set(3)
        null.histogram("c").observe(1.5)
        assert null.snapshot() == {}
        assert null.names() == []

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h", boundaries=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["c"] == 2
        assert snap["h"]["count"] == 1


# -- session management ------------------------------------------------------


class TestSession:
    def test_off_by_default(self):
        assert not telemetry.is_enabled()
        assert telemetry.get_tracer() is None
        assert telemetry.get_metrics() is None

    def test_session_scopes_enablement(self):
        with telemetry.session() as session:
            assert telemetry.is_enabled()
            assert telemetry.get_tracer() is session.tracer
        assert not telemetry.is_enabled()

    def test_sessions_do_not_nest(self):
        with telemetry.session():
            with pytest.raises(RuntimeError):
                telemetry.enable()

    def test_enable_disable_roundtrip(self):
        session = telemetry.enable()
        assert telemetry.is_enabled()
        finished = telemetry.disable()
        assert finished is session
        assert telemetry.disable() is None   # idempotent

    def test_disabled_hooks_are_noops(self):
        from repro.telemetry import instrument

        assert not instrument.enabled()
        with instrument.span("nothing", x=1) as span:
            assert span is None
        instrument.instant("nothing")
        instrument.counter_event("nothing", 1)
        instrument.inc("nothing")
        instrument.gauge("nothing", 2)
        instrument.observe_us("nothing", 3.0)
        instrument.set_thread(0, "t")
        instrument.ensure_thread("p")
        instrument.clear_thread()
        assert instrument.current_span_id() is None
        assert instrument.now_us() == 0.0

    def test_metrics_only_session_collects_metrics_and_no_trace(self):
        from repro.telemetry import instrument

        session = telemetry.enable_metrics()
        assert telemetry.is_enabled() and instrument.enabled()
        assert session.tracer is None and telemetry.get_tracer() is None
        assert telemetry.get_metrics() is session.metrics
        with pytest.raises(RuntimeError):
            telemetry.enable()                  # still one session at a time
        span = instrument.span("work", step=1)
        assert span is instrument._NULL_SPAN
        with span:
            instrument.instant("ping")
            instrument.counter_event("depth", 3)
            instrument.set_thread(0, "t")
            instrument.ensure_thread("p")
            instrument.clear_thread()
            instrument.inc("done")
            instrument.observe_us("lat_us", 5.0)
        assert instrument.current_span_id() is None
        assert instrument.now_us() == 0.0
        snapshot = session.metrics.snapshot()
        assert set(snapshot) == {"done", "lat_us"}   # no trace-only series
        assert snapshot["done"] == 1
        assert snapshot["lat_us"]["count"] == 1
        assert telemetry.disable() is session
        assert not instrument.enabled()

    def test_hooks_collect_when_enabled(self):
        from repro.telemetry import instrument

        with telemetry.session() as session:
            with instrument.span("work", step=1):
                instrument.inc("done")
                instrument.instant("ping")
        assert [s.name for s in session.tracer.spans] == ["work"]
        assert session.metrics.counter("done").value == 1
        assert [e.name for e in session.tracer.events] == ["ping"]
