"""Timing wrappers, span self times and the summary statistics of the benchmark.

The traced run records spans from the benchmark's own files only: a
:class:`Recorder` installs timing wrappers on the attribute each caller
looks up (a module function, a class attribute or an instance
attribute), keeps them for the duration of one pass, and restores the
original afterwards.  Spans land in a plain
:class:`repro.telemetry.Tracer` that is never enabled as the global
session, so the program's own telemetry switches behave exactly as in
the untraced run, and the Chrome trace is written through the existing
:func:`repro.telemetry.export.write_chrome_trace`.

A function shipped to ``mode="mp"`` children (``shard_stats_task``) must
never be wrapped: pickle sends functions by their import path, and the
child would look up the wrapper, not the function.  Its body is timed
in-process instead (see ``suite.py``).
"""

from __future__ import annotations

import contextlib
import math
import statistics
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.telemetry.spans import SpanNode, Tracer

#: Percentile ladder for the tail rule, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it may be reported.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median, or 0.0 for no samples (a layer the workload never reached)."""
    return statistics.median(values) if values else 0.0


def nearest_rank(sorted_values: Sequence[float], pct: float) -> tuple[float, int]:
    """(value, samples strictly beyond it) at ``pct`` by the nearest-rank rule."""
    n = len(sorted_values)
    # Rounded first so that e.g. 99.9 % of 10000 is rank 9990, not 9991.
    index = max(0, math.ceil(round(pct * n / 100.0, 9)) - 1)
    return sorted_values[index], n - 1 - index


def tail_percentile(values: Iterable[float]) -> tuple[float, float, int] | None:
    """The highest ladder percentile with at least :data:`TAIL_MIN_BEYOND`
    samples beyond it: ``(pct, value, n_samples)``, or None when even the
    median has fewer samples above it."""
    ordered = sorted(values)
    if not ordered:
        return None
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, value, len(ordered)
    return None


def _covered(children: list[SpanNode], start: float, end: float) -> float:
    """Length of the union of the children's intervals inside [start, end]."""
    intervals = sorted(
        (max(start, child.span.start_us), min(end, child.span.end_us or start))
        for child in children
    )
    total = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(roots: Iterable[SpanNode]) -> list[tuple[str, float, float]]:
    """``(name, self_us, duration_us)`` for every span under ``roots``.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (overlapping children count once).
    """
    out: list[tuple[str, float, float]] = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        span = node.span
        duration = span.duration_us
        covered = _covered(node.children, span.start_us,
                           span.end_us if span.end_us is not None else span.start_us)
        out.append((span.name, duration - covered, duration))
        stack.extend(node.children)
    return out


class Recorder:
    """Collects the benchmark's spans and per-layer counters for one pass."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counts: dict[str, float] = {}

    def span(self, name: str, **args: Any):
        return self.tracer.span(name, category="perfbench", **args)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, name: str, fn: Callable,
              on_result: Callable[..., None] | None = None) -> Callable:
        """``fn`` wrapped in a span named ``name``.  ``on_result(span,
        result, args)`` sees each finished call (for counts such as rows
        read, or the arguments a call shipped)."""
        span = self.span

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(name) as opened:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(opened, result, args)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets: Sequence[tuple]) -> Iterator[None]:
        """Install timing wrappers for the block, then restore.

        Each target is ``(owner, attribute, span_name)`` or
        ``(owner, attribute, span_name, on_result)``; ``owner`` is the
        object the caller looks the attribute up on.  An attribute the
        owner did not hold itself (a method reached through an instance)
        is deleted again, so lookups fall back to the class.
        """
        saved: list[tuple[Any, str, bool, Any]] = []
        try:
            for owner, attribute, name, *hook in targets:
                own = vars(owner)
                saved.append((owner, attribute, attribute in own,
                              own.get(attribute)))
                setattr(owner, attribute, self.timed(
                    name, getattr(owner, attribute), hook[0] if hook else None))
            yield
        finally:
            for owner, attribute, had, raw in reversed(saved):
                if had:
                    setattr(owner, attribute, raw)
                else:
                    delattr(owner, attribute)

    def self_by_name(self, root_name: str = "") -> dict[str, list[float]]:
        """Self times (µs) per span name, over the trees rooted at spans
        named ``root_name``, or over every tree."""
        roots = [node for node in self.tracer.span_tree()
                 if not root_name or node.span.name == root_name]
        out: dict[str, list[float]] = {}
        for name, self_us, _duration in self_times(roots):
            out.setdefault(name, []).append(self_us)
        return out

    def per_root(self, root_name: str) -> list[dict[str, float]]:
        """For each root span named ``root_name``: total self time (µs)
        per span name inside that root's tree."""
        out = []
        for node in self.tracer.span_tree():
            if node.span.name != root_name:
                continue
            totals: dict[str, float] = {}
            for name, self_us, _duration in self_times([node]):
                totals[name] = totals.get(name, 0.0) + self_us
            out.append(totals)
        return out

    def durations(self, name: str) -> list[float]:
        """Durations (µs) of every span named ``name``, on any thread."""
        return [span.duration_us for span in self.tracer.spans_named(name)]


def layer_table(recorder: Recorder,
                root_name: str = "") -> list[tuple[str, int, float, float | None]]:
    """``(span, calls, self_ms, share_of_wall)`` rows, largest self time
    first.  With no ``root_name`` every tree counts and there is no one
    wall time to take a share of."""
    rows = recorder.self_by_name(root_name)
    wall = sum(recorder.durations(root_name)) if root_name else 0.0
    table = [(name, len(values), sum(values) / 1e3,
              sum(values) / wall if wall else None)
             for name, values in rows.items()]
    table.sort(key=lambda row: -row[2])
    return table


def accounted_ratio(recorder: Recorder, root_name: str) -> float:
    """Summed self times of every span under the roots, over the roots'
    wall time.  1.0 means the layers account for the wall time exactly;
    a double-counted or misnested wrapper pushes it away from 1."""
    wall = sum(recorder.durations(root_name))
    if not wall:
        return 0.0
    return sum(map(sum, recorder.self_by_name(root_name).values())) / wall
