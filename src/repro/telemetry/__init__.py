"""``repro.telemetry`` — observability for every runtime in this repo.

The paper's pedagogy is *making parallel execution visible*; this package
is the reproduction's instrument panel.  It has four layers:

- :mod:`repro.telemetry.spans` — thread-safe hierarchical span tracing
  (:class:`Tracer`) on a monotonic clock, with per-thread span stacks and
  logical thread identities (OpenMP team-thread, MPI rank);
- :mod:`repro.telemetry.metrics` — counters, gauges, and fixed-bucket
  histograms in a :class:`MetricsRegistry`;
- :mod:`repro.telemetry.export` — Chrome ``trace_event`` JSON (open it
  in ``chrome://tracing`` / Perfetto), JSON-lines, and OTLP span JSON
  (the OpenTelemetry collector wire format);
- :mod:`repro.telemetry.instrument` — the hooks the runtimes call.
  **Telemetry is off by default**: each hook is a single branch on a
  module global, so the deterministic tests and simulated-time models
  are untouched when nothing is collecting.

Usage::

    from repro import telemetry

    with telemetry.session() as session:
        run_fork_join(4)
    telemetry.export.write_chrome_trace("trace.json",
                                        session.tracer, session.metrics)

or imperatively: ``telemetry.enable()`` … ``telemetry.disable()``;
``enable_metrics()`` collects metrics and keeps no trace.  Sessions do
not nest — the runtimes report to one process-global collector,
mirroring how a real tracing backend is wired.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.telemetry import export, instrument
from repro.telemetry.instrument import _install, _uninstall
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.telemetry.spans import Span, SpanNode, TraceEvent, Tracer

__all__ = [
    "Tracer",
    "Span",
    "SpanNode",
    "TraceEvent",
    "MetricsRegistry",
    "NullMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    "TelemetrySession",
    "enable",
    "enable_metrics",
    "disable",
    "is_enabled",
    "get_tracer",
    "get_metrics",
    "session",
    "export",
    "instrument",
]

_session_lock = threading.Lock()
_current: "TelemetrySession | None" = None


class TelemetrySession:
    """One enable→collect→disable cycle; also a context manager.
    A session without a tracer collects metrics only."""

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def __enter__(self) -> "TelemetrySession":
        _activate(self)
        return self

    def __exit__(self, *_exc: object) -> None:
        disable()

    # Convenience re-exports so callers rarely need the submodules.

    def write_chrome_trace(self, path: str) -> dict[str, Any]:
        return export.write_chrome_trace(path, self.tracer, self.metrics)

    def write_jsonl(self, path: str) -> int:
        return export.write_jsonl(path, self.tracer, self.metrics)

    def write_otlp_json(self, path: str) -> dict[str, Any]:
        return export.write_otlp_json(path, self.tracer)


def _activate(new_session: TelemetrySession) -> None:
    global _current
    with _session_lock:
        if _current is not None:
            raise RuntimeError(
                "telemetry is already enabled; sessions do not nest"
            )
        _current = new_session
        _install(new_session.tracer, new_session.metrics)


def enable(
    tracer: Tracer | None = None, metrics: MetricsRegistry | None = None
) -> TelemetrySession:
    """Start collecting process-wide; returns the active session."""
    new_session = TelemetrySession(
        tracer if tracer is not None else Tracer(), metrics
    )
    _activate(new_session)
    return new_session


def enable_metrics() -> TelemetrySession:
    """Start collecting metrics only, process-wide: no span or trace
    event is created or kept, however long the process runs."""
    new_session = TelemetrySession()
    _activate(new_session)
    return new_session


def disable() -> TelemetrySession | None:
    """Stop collecting; returns the session that was active, if any."""
    global _current
    with _session_lock:
        finished = _current
        _current = None
        _uninstall()
    return finished


def is_enabled() -> bool:
    return instrument.enabled()


def get_tracer() -> Tracer | None:
    """The active session's tracer; None when off or metrics-only."""
    current = _current
    return current.tracer if current is not None else None


def get_metrics() -> MetricsRegistry | None:
    current = _current
    return current.metrics if current is not None else None


def session(
    tracer: Tracer | None = None, metrics: MetricsRegistry | None = None
) -> TelemetrySession:
    """``with telemetry.session() as s:`` — enable for the block."""
    return TelemetrySession(tracer if tracer is not None else Tracer(), metrics)
