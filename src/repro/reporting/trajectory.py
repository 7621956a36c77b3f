"""The consolidated bench trajectory behind ``repro bench --trajectory``.

Every benchmark suite writes one ``BENCH_<suite>.json`` point at the
repo root; this module reads whichever of them exist and renders one
table — suite, when it ran, whether its gate passed, and the suite's
headline metrics from :data:`repro.benchutil.SUITES` — so the
performance story of the whole repo fits on one screen without opening
every JSON file.  A point whose perf gate never ran (``gate_applied``
false — e.g. a single-core box skips a speedup comparison) renders its
status as ``—``, not ``ok``: an unearned pass is the one thing a
trajectory must never show.

A missing or unreadable file renders as an ``absent`` row (run
``python -m repro bench <suite>`` to produce it).
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.benchutil import SUITES, headline

__all__ = ["load_points", "render_trajectory"]


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
