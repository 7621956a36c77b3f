"""The hooks instrumented code calls.

Every hook starts with the same single branch: load one module global
(``_TRACER`` or ``_METRICS``) and bail if it is ``None``.  That is the
entire cost of disabled telemetry — no tracer object, no lock, no
allocation — which is what lets the runtimes keep their hooks inline on
hot paths (barrier waits, message receives, per-ligand scoring) without
a measurable tax on the deterministic tests.

A full session installs both globals, a metrics-only session only
``_METRICS`` (spans are then the shared no-op); :func:`enabled` means
metrics are collecting.  Instrumented modules never manage state::

    from repro.telemetry import instrument as telemetry
    ...
    with telemetry.span("omp.parallel", num_threads=n):
        ...
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer

__all__ = [
    "enabled",
    "span",
    "instant",
    "counter_event",
    "inc",
    "gauge",
    "observe",
    "observe_us",
    "set_thread",
    "ensure_thread",
    "clear_thread",
    "current_span_id",
    "now_us",
]

#: The active session's collectors, None when off.  Read without a lock —
#: rebinding a module global is atomic under the GIL, and a stale read
#: merely drops (or records) one event at the enable/disable edge.
_TRACER: Tracer | None = None
_METRICS: MetricsRegistry | None = None


class _NullSpan:
    """Shared, stateless stand-in for a span context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


def _install(tracer: Tracer | None, metrics: MetricsRegistry) -> None:
    global _TRACER, _METRICS
    _TRACER, _METRICS = tracer, metrics


def _uninstall() -> None:
    global _TRACER, _METRICS
    _TRACER = _METRICS = None


def enabled() -> bool:
    """Are metrics currently collecting?"""
    return _METRICS is not None


def span(name: str, category: str = "", parent_id: int | None = None, **args: Any):
    """Open a span if a tracer is collecting; otherwise a shared no-op."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, category, parent_id=parent_id, **args)


def instant(name: str, **args: Any) -> None:
    tracer = _TRACER
    if tracer is None:
        return
    tracer.instant(name, **args)


def counter_event(name: str, value: float, series: str = "value") -> None:
    """Timestamped counter sample on the trace timeline."""
    tracer = _TRACER
    if tracer is None:
        return
    tracer.counter(name, value, series)


def inc(name: str, delta: float = 1.0) -> None:
    """Bump an aggregate metrics counter."""
    metrics = _METRICS
    if metrics is None:
        return
    metrics.counter(name).inc(delta)


def gauge(name: str, value: float) -> None:
    metrics = _METRICS
    if metrics is None:
        return
    metrics.gauge(name).set(value)


def observe(name: str, value: float, boundaries: Any = None) -> None:
    """Record into a histogram with explicit bucket ``boundaries``.

    The boundaries only matter on the call that *creates* the histogram
    (first use); later observations reuse the registered instrument.
    Use this for non-latency shapes — steal-probe counts, queue depths —
    where the default microsecond buckets would collapse everything into
    one bin.
    """
    metrics = _METRICS
    if metrics is None:
        return
    if boundaries is None:
        metrics.histogram(name).observe(value)
    else:
        metrics.histogram(name, boundaries).observe(value)


def observe_us(name: str, value_us: float) -> None:
    """Record a microsecond latency into a histogram."""
    metrics = _METRICS
    if metrics is None:
        return
    metrics.histogram(name).observe(value_us)


def set_thread(tid: int, thread_name: str, process: str = "main") -> None:
    """Declare the calling thread's logical identity (no-op when off)."""
    tracer = _TRACER
    if tracer is None:
        return
    tracer.set_thread_identity(tid, thread_name, process)


def ensure_thread(process: str, thread_name: str | None = None) -> None:
    """Adopt an anonymous worker thread into ``process`` (no-op when off)."""
    tracer = _TRACER
    if tracer is None:
        return
    tracer.ensure_thread(process, thread_name)


def clear_thread() -> None:
    tracer = _TRACER
    if tracer is None:
        return
    tracer.clear_thread_identity()


def current_span_id() -> int | None:
    """Innermost open span on this thread — capture before forking workers
    so their root spans parent under the region span."""
    tracer = _TRACER
    if tracer is None:
        return None
    return tracer.current_span_id()


def now_us() -> float:
    """Tracer-relative monotonic microseconds (0.0 with no tracer)."""
    tracer = _TRACER
    if tracer is None:
        return 0.0
    return tracer.now_us()
