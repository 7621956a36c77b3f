"""The mega-cohort benchmark behind ``python -m repro bench megacohort``.

Three questions, one point (``BENCH_megacohort.json``):

- **Identity** — does the streamed single-shard N=124 run render Tables
  1–6 byte-identically to the in-memory pipeline?  (The correctness
  anchor; gates ``ok`` unconditionally.)
- **Throughput** — rows/second streaming the full cohort through the
  threaded executor and through the ``mode="mp"`` process pool.  The
  speedup gate (mp ≥ threaded) applies only on machines with two or
  more cores, mirroring the ``bench mp`` convention — on one core a
  process pool is pickle transport with nothing to buy it back.
- **Memory** — peak RSS (:func:`repro.benchutil.peak_rss_bytes`) against
  the estimated footprint of materialising the full response tensor
  (:func:`repro.megacohort.run.full_tensor_bytes`).  The streamed run
  must stay under half the full-tensor estimate; at the default
  N=1,000,000 the estimate is ~1.8 GB and the streamed peak is tens of
  MB per in-flight shard plus the interpreter.

``quick`` shrinks the cohort to 50,000 rows for the CI smoke step; the
full run streams one million.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

from repro.benchutil import format_bytes, peak_rss_bytes
from repro.config import resolve_mp_workers
from repro.megacohort.run import DEFAULT_N, full_tensor_bytes, identity_check, run_streamed

__all__ = ["run_megacohort_bench", "render_point"]

#: The streamed peak must stay under this fraction of the full-tensor
#: estimate for ``ok`` (generous: the real margin at N=1e6 is ~40x).
_RSS_FRACTION = 0.5


def _timed_arm(n: int, shards: int | None, seed: int, mode: str,
               workers: int) -> tuple[float, Any]:
    start = time.perf_counter()
    result = run_streamed(n=n, shards=shards, seed=seed, mode=mode,
                          workers=workers)
    return time.perf_counter() - start, result


def run_megacohort_bench(
    quick: bool = False,
    out_path: str | None = "BENCH_megacohort.json",
    seed: int = 2018,
) -> dict[str, Any]:
    """Run the mega-cohort benchmark; write and return the point."""
    n = 50_000 if quick else DEFAULT_N
    shards = 16 if quick else None          # full run: auto (~62 shards)
    workers = resolve_mp_workers()
    cores = os.cpu_count() or 1

    identity, identity_detail = identity_check(seed)

    threaded_s, threaded_result = _timed_arm(n, shards, seed, "threaded",
                                             workers)
    mp_s, mp_result = _timed_arm(n, shards, seed, "mp", workers)
    tables_identical = (
        threaded_result.render_tables() == mp_result.render_tables()
    )

    peak_rss = peak_rss_bytes()
    full_tensor = full_tensor_bytes(n)
    rss_bounded = (
        peak_rss < _RSS_FRACTION * full_tensor if not quick
        # The 50k tensor (~89 MB) is smaller than a warm interpreter's
        # RSS; the memory gate is only meaningful at full scale.
        else True
    )

    point: dict[str, Any] = {
        "bench": "megacohort",
        "quick": quick,
        "n": n,
        "shards": threaded_result.shards,
        "workers": workers,
        "cores": cores,
        "seed": seed,
        "identity_124": identity,
        "tables_identical_mp": tables_identical,
        "threaded_s": threaded_s,
        "mp_s": mp_s,
        "threaded_rows_per_s": n / threaded_s,
        "mp_rows_per_s": n / mp_s,
        "mp_speedup": threaded_s / mp_s,
        "peak_rss_bytes": peak_rss,
        "full_tensor_bytes": full_tensor,
        "rss_fraction_of_full_tensor": peak_rss / full_tensor,
        "rss_bounded": rss_bounded,
        "retries": int(threaded_result.sched_stats.get("retries", 0)),
    }
    for key, value in list(point.items()):
        if isinstance(value, float):
            point[key] = round(value, 6)
    # Identity and the memory bound always gate; the speedup gate needs
    # parallel hardware (the bench-mp convention).  ``gate_applied``
    # records whether the speedup gate actually ran.
    point["gate_applied"] = cores >= 2
    faster = bool(not point["gate_applied"]
                  or point["mp_rows_per_s"] >= point["threaded_rows_per_s"])
    point["ok"] = bool(identity and tables_identical and rss_bounded
                       and faster)
    point["identity_detail"] = identity_detail
    point["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(point, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return point


def render_point(point: dict[str, Any]) -> str:
    """The benchmark point as the aligned table the CLI prints."""
    lines = [
        f"megacohort bench (quick={point['quick']}): n={point['n']} "
        f"shards={point['shards']} workers={point['workers']} "
        f"cores={point['cores']} ok={point['ok']}",
        f"  N=124 identity vs in-memory: {point['identity_124']}  "
        f"mp tables identical: {point['tables_identical_mp']}",
        f"  threaded   {point['threaded_s'] * 1e3:10.1f} ms  "
        f"{point['threaded_rows_per_s']:12.0f} rows/s",
        f"  process    {point['mp_s'] * 1e3:10.1f} ms  "
        f"{point['mp_rows_per_s']:12.0f} rows/s  "
        f"({point['mp_speedup']:.2f}x)",
        f"  peak RSS {format_bytes(point['peak_rss_bytes'])} vs "
        f"full tensor {format_bytes(point['full_tensor_bytes'])} "
        f"({point['rss_fraction_of_full_tensor']:.3f}x, "
        f"bounded={point['rss_bounded']})",
    ]
    return "\n".join(lines)
