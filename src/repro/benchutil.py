"""The ``repro bench`` harness and its shared instrumentation.

Every suite is one :class:`Suite` row in :data:`SUITES`: a
``measure(quick)`` that returns the raw point, a ``gates(point)`` that
names each ``(passed, applied)`` check, and the headline
``(key, label, fmt)`` rows that ``repro bench <suite>`` and
``repro bench --trajectory`` print.  :func:`run_suite` does the tail
every suite shares once: round the floats, evaluate the gates on the
rounded point, derive ``gate_applied`` (every gate ran) and ``ok``
(every gate that ran passed), stamp the time and write the JSON.  A
gate that needs hardware the box lacks (a speedup on one core) is not
applied, so a single-core ``ok`` never claims it.

:func:`render_trajectory` is ``repro bench --trajectory``: it reads
whichever ``BENCH_<suite>.json`` points exist at the repo root and
renders one table — suite, when it ran, whether its gate passed, and
the suite's headline metrics — so the performance story of the whole
repo fits on one screen.  A point whose perf gate never ran
(``gate_applied`` false — e.g. a single-core box skips a speedup
comparison) renders its status as ``—``, not ``ok``: an unearned pass is
the one thing a trajectory must never show.  A missing or unreadable
file renders as an ``absent`` row.

Every ``BENCH_*.json`` point that reports memory uses one definition of
"peak RSS" — :func:`peak_rss_bytes` — so the numbers are comparable.
``ru_maxrss`` is the high-water mark of the process's resident set, in
**kibibytes on Linux** and **bytes on macOS** (the one platform quirk
it hides).  ``RUSAGE_CHILDREN`` covers reaped child processes, which is
what accounts for a ``mode="mp"`` process pool after
``executor.close()`` has joined its children.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "SUITES", "Suite", "format_bytes", "headline", "load_points",
    "median_seconds", "peak_rss_bytes", "render_point", "render_trajectory",
    "run_suite", "stepping_logs_identical",
]

Point = dict[str, Any]
#: Gate name → (passed, applied).
Gates = dict[str, tuple[bool, bool]]


def _ru_maxrss_bytes(who: int) -> int:
    raw = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":
        return int(raw)
    return int(raw) * 1024


def peak_rss_bytes(include_children: bool = True) -> int:
    """Peak resident set size of this process, in bytes.

    With ``include_children`` (default) the result is the max over the
    process itself and its reaped children — a process pool's memory
    counts once its workers have been joined.
    """
    peak = _ru_maxrss_bytes(resource.RUSAGE_SELF)
    if include_children:
        peak = max(peak, _ru_maxrss_bytes(resource.RUSAGE_CHILDREN))
    return peak


def format_bytes(n_bytes: float) -> str:
    """Human-readable binary size (``1.5 GiB`` style)."""
    value = float(n_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return f"{value:.0f} {unit}" if unit == "B" else f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def median_seconds(fn: Callable[[], Any], repeats: int) -> float:
    """Median wall time of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def stepping_logs_identical(workers: int, seed: int, **variant: Any) -> bool:
    """The drug-design stepping report renders byte for byte the same
    with and without ``variant`` (``mode="mp"``, ``speculate=True``)."""
    from repro.sched.workloads import run_sched_workload

    plain, varied = (
        run_sched_workload("drugdesign", workers=workers, seed=seed,
                           **options).render()
        for options in ({}, variant)
    )
    return plain == varied


@dataclass(frozen=True)
class Suite:
    """One benchmark suite: how to measure it, gate it and headline it."""

    name: str
    measure: Callable[[bool], Point]
    gates: Callable[[Point], Gates]
    #: (point key, short label, printf-style format of the value)
    headline: tuple[tuple[str, str, str], ...]

    @property
    def filename(self) -> str:
        return f"BENCH_{self.name}.json"


def run_suite(suite: Suite, quick: bool = False,
              out_path: str | None = None) -> Point:
    """Measure ``suite``, gate the rounded point, write it if asked."""
    point: Point = {"bench": suite.name, "quick": quick}
    point.update(suite.measure(quick))
    for key, value in list(point.items()):
        if isinstance(value, float):
            point[key] = round(value, 6)
    gates = suite.gates(point)
    point["gates"] = {
        name: ("pass" if passed else "fail") if applied else "skip"
        for name, (passed, applied) in gates.items()
    }
    point["gate_applied"] = all(applied for _, applied in gates.values())
    point["ok"] = all(bool(passed) for passed, applied in gates.values()
                      if applied)
    point["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(point, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return point


def headline(suite: Suite, point: Point) -> list[tuple[str, str]]:
    """``(label, formatted value)`` per headline row; ``-`` marks a key
    the point predates, so old points stay readable as suites grow."""
    cells = []
    for key, label, fmt in suite.headline:
        value = point.get(key)
        if value is None:
            cells.append((label, "-"))
            continue
        try:
            cells.append((label, fmt % value))
        except (TypeError, ValueError):
            cells.append((label, str(value)))
    return cells


def render_point(suite: Suite, point: Point) -> str:
    """The point as the table ``repro bench <suite>`` prints."""
    lines = [f"{suite.name} bench (quick={point['quick']}): "
             f"ok={point['ok']} gate_applied={point['gate_applied']}"]
    lines.extend(f"  {label:<14} {cell}" for label, cell in headline(suite, point))
    lines.extend(f"  gate {name}: {status}"
                 for name, status in point["gates"].items())
    return "\n".join(lines)


def _measure(module: str) -> Callable[[bool], Point]:
    """The ``measure`` of ``module``, imported only when the suite runs."""
    def measure(quick: bool) -> Point:
        return importlib.import_module(module).measure(quick)
    return measure


def _kernels_gates(p: Point) -> Gates:
    # Fast-vs-scalar needs no parallel hardware: always gated.
    return {key: (p[key] >= 1.0, True) for key in (
        "lcs_vector_speedup", "lcs_batched_speedup", "stencil_speedup",
        "bootstrap_speedup", "bootstrap_median_speedup")}


def _mp_gates(p: Point) -> Gates:
    # A speedup needs parallel hardware; identity never does.
    parallel = p["cores"] >= 2
    return {
        "identical": (p["stencil_identical"] and p["lcs_identical"]
                      and p["stepping_log_identical"], True),
        "stencil_speedup": (p["stencil_speedup"] >= 1.0, parallel),
        "lcs_speedup": (p["lcs_speedup"] >= 1.0, parallel),
    }


def _spec_gates(p: Point) -> Gates:
    # A wait-driven stall needs no parallel hardware: always gated.
    return {
        "results_identical": (p["results_identical"], True),
        "stepping_log_identical": (p["stepping_log_identical"], True),
        "tail_cut": (p["spec_p99_s"] < p["base_p99_s"]
                     and p["backups_launched"] >= 1
                     and p["backups_won"] >= 1
                     and p["base_backups_launched"] == 0, True),
    }


def _pipeline_gates(p: Point) -> Gates:
    jobs = p["enqueue_jobs"]
    return {
        "all_done": (p["enqueue_created"] == jobs and p["drain_jobs"] == jobs
                     and p["store_done"] == jobs, True),
        "resume_identical": (p["byte_identical"]
                             and p["resumed_stages"] == 4, True),
        "resume_cheaper": (p["resumed_s"] <= p["cold_s"], True),
    }


def _megacohort_gates(p: Point) -> Gates:
    return {
        "identical": (p["identity_124"] and p["tables_identical_mp"], True),
        "rss_bounded": (p["rss_bounded"], True),
        "mp_speedup": (p["mp_rows_per_s"] >= p["threaded_rows_per_s"],
                       p["cores"] >= 2),
    }


def _faults_gates(p: Point) -> Gates:
    return {
        "chaos_ok": (p["chaos_ok"], True),
        "recovery_overhead": (p["recovery_overhead_ratio"] > 0, True),
    }


def _sched_gates(p: Point) -> Gates:
    return {
        "steals": (p["steals"] > 0, True),
        "cache_hit": (p["cache_hit_ratio"] == 1.0, True),
    }


#: Every ``repro bench`` suite, in ``--list`` and trajectory order.
SUITES: dict[str, Suite] = {suite.name: suite for suite in (
    Suite("kernels", _measure("repro.kernels.bench"), _kernels_gates, (
        ("lcs_vector_speedup", "lcs-ligand", "%.1fx"),
        ("lcs_batched_speedup", "lcs-batched", "%.1fx"),
        ("dispatch_speedup", "dispatch", "%.1fx"),
        ("stencil_speedup", "stencil", "%.1fx"),
        ("bootstrap_speedup", "bootstrap", "%.1fx"),
        ("bootstrap_median_speedup", "median", "%.1fx"),
    )),
    Suite("mp", _measure("repro.kernels.mpbench"), _mp_gates, (
        ("stencil_speedup", "stencil", "%.2fx"),
        ("lcs_speedup", "lcs", "%.2fx"),
        ("cores", "cores", "%d"),
    )),
    Suite("spec", _measure("repro.sched.specbench"), _spec_gates, (
        ("base_p99_s", "p99-plain", "%.3fs"),
        ("spec_p99_s", "p99-spec", "%.3fs"),
        ("backups_won", "won", "%d"),
    )),
    Suite("pipeline", _measure("repro.pipeline.bench"), _pipeline_gates, (
        ("enqueue_jobs_per_s", "enqueue", "%.0f/s"),
        ("drain_jobs_per_s", "drain", "%.0f/s"),
        ("resume_speedup", "resume", "%.1fx"),
    )),
    Suite("megacohort", _measure("repro.megacohort.bench"), _megacohort_gates, (
        ("n", "rows", "%d"),
        ("threaded_rows_per_s", "threaded", "%.0f/s"),
        ("mp_rows_per_s", "mp", "%.0f/s"),
        ("rss_fraction_of_full_tensor", "rss", "%.3fx"),
        ("shard_peak_mib", "shard-peak", "%.1f MiB"),
    )),
    Suite("faults", _measure("repro.faults.bench"), _faults_gates, (
        ("recovery_overhead_ratio", "overhead", "%.2fx"),
        ("recovered", "recovered", "%d"),
    )),
    Suite("sched", _measure("repro.sched.bench"), _sched_gates, (
        ("dispatch_overhead_ratio", "dispatch", "%.2fx"),
        ("steals", "steals", "%d"),
        ("warm_speedup", "warm", "%.1fx"),
        ("cache_hit_ratio", "hit", "%.2f"),
    )),
)}


def load_points(root: str = ".") -> dict[str, dict[str, Any] | None]:
    """Read every suite's point; ``None`` marks an absent or unreadable
    file (never raises — the trajectory degrades, it does not fail)."""
    points: dict[str, dict[str, Any] | None] = {}
    for suite in SUITES.values():
        path = os.path.join(root, suite.filename)
        try:
            with open(path, encoding="utf-8") as handle:
                loaded = json.load(handle)
            points[suite.name] = loaded if isinstance(loaded, dict) else None
        except (OSError, ValueError):
            points[suite.name] = None
    return points


def render_trajectory(root: str = ".") -> str:
    """The one-screen table over every ``BENCH_*.json`` that exists."""
    points = load_points(root)
    rows: list[tuple[str, str, str, str]] = []
    for suite in SUITES.values():
        point = points[suite.name]
        if point is None:
            rows.append((suite.name, "-", "absent",
                         f"run `python -m repro bench {suite.name}`"))
            continue
        ok = point.get("ok")
        if ok is None:
            status = "?"
        elif not ok:
            status = "FAILED"
        elif point.get("gate_applied") is False:
            # The point passed, but its perf gate never ran (e.g. a
            # single-core box skips the speedup comparison) — render
            # the skip honestly instead of an unearned "ok".
            status = "—"
        else:
            status = "ok"
        when = str(point.get("timestamp", "-"))
        cells = "  ".join(f"{label}={cell}"
                          for label, cell in headline(suite, point))
        rows.append((suite.name, when, status, cells))

    name_w = max(len(r[0]) for r in rows)
    when_w = max(len(r[1]) for r in rows)
    stat_w = max(len(r[2]) for r in rows)
    present = sum(1 for point in points.values() if point is not None)
    lines = [
        f"bench trajectory: {present}/{len(SUITES)} suites have points",
        "-" * 72,
    ]
    for name, when, status, cells in rows:
        lines.append(
            f"{name:<{name_w}}  {when:<{when_w}}  {status:<{stat_w}}  "
            f"{cells}"
        )
    lines.append("-" * 72)
    return "\n".join(lines)
