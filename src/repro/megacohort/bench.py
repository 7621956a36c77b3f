"""The mega-cohort benchmark behind ``python -m repro bench megacohort``.

Three questions, one point (``BENCH_megacohort.json``):

- **Identity** — does the streamed single-shard N=124 run render Tables
  1–6 byte-identically to the in-memory pipeline?  (The correctness
  anchor; always gated.)
- **Throughput** — rows/second streaming the full cohort through the
  threaded executor and through the ``mode="mp"`` process pool.  The
  speedup gate (mp ≥ threaded) applies only on machines with two or
  more cores, mirroring the ``bench mp`` convention — on one core a
  process pool is pickle transport with nothing to buy it back.
- **Memory** — peak RSS (:func:`repro.benchutil.peak_rss_bytes`) against
  the estimated footprint of materialising the full response tensor
  (:func:`repro.megacohort.run.full_tensor_bytes`).  The streamed run
  must stay under half the full-tensor estimate; at the default
  N=1,000,000 the estimate is ~1.8 GB, while a shard draws and scores
  its item noise in row blocks and holds ~20 MiB at its traced peak,
  so the streamed peak is that per in-flight shard plus the
  interpreter.  ``shard_peak_mib`` is that per-shard figure, measured
  with :mod:`tracemalloc` on one default-size shard: it needs no extra
  cores and reads the same in ``quick`` mode, where the RSS bound is
  not applied.

``quick`` shrinks the cohort to 50,000 rows for the CI smoke step; the
full run streams one million.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from typing import Any

from repro.benchutil import peak_rss_bytes
from repro.config import resolve_mp_workers
from repro.megacohort.run import (
    DEFAULT_N,
    _calibration,
    full_tensor_bytes,
    identity_check,
    run_streamed,
)
from repro.megacohort.shards import DEFAULT_SHARD_ROWS, ShardSpec, shard_stats

__all__ = ["measure"]

#: Cohort seed of the identity check and both streamed arms.
_SEED = 2018

#: The streamed peak must stay under this fraction of the full-tensor
#: estimate for ``ok`` (generous: at N=1e6 the threaded arm's whole
#: process peaks near 0.05 of it).
_RSS_FRACTION = 0.5


def _timed_arm(n: int, shards: int | None, seed: int, mode: str,
               workers: int) -> tuple[float, Any]:
    start = time.perf_counter()
    result = run_streamed(n=n, shards=shards, seed=seed, mode=mode,
                          workers=workers)
    return time.perf_counter() - start, result


def _shard_peak_bytes(seed: int) -> int:
    """:mod:`tracemalloc` peak of one default-size shard, drawn and
    reduced in-process (call it warm: after a run has imported and
    cached what the shard path needs)."""
    targets, model, calibration = _calibration(seed)
    spec = ShardSpec(index=0, rows=DEFAULT_SHARD_ROWS)
    tracemalloc.start()
    try:
        shard_stats(spec, calibration.knobs, targets.skills,
                    model.items_per_skill, seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(quick: bool = False) -> dict[str, Any]:
    """Run the mega-cohort benchmark and return the raw point."""
    n = 50_000 if quick else DEFAULT_N
    shards = 16 if quick else None          # full run: auto (~62 shards)
    workers = resolve_mp_workers()

    identity, identity_detail = identity_check(_SEED)

    threaded_s, threaded_result = _timed_arm(n, shards, _SEED, "threaded",
                                             workers)
    mp_s, mp_result = _timed_arm(n, shards, _SEED, "mp", workers)
    tables_identical = (
        threaded_result.render_tables() == mp_result.render_tables()
    )

    peak_rss = peak_rss_bytes()
    full_tensor = full_tensor_bytes(n)
    shard_peak = _shard_peak_bytes(_SEED)
    return {
        "n": n,
        "shards": threaded_result.shards,
        "workers": workers,
        "cores": os.cpu_count() or 1,
        "seed": _SEED,
        "identity_124": identity,
        "identity_detail": identity_detail,
        "tables_identical_mp": tables_identical,
        "threaded_s": threaded_s,
        "mp_s": mp_s,
        "threaded_rows_per_s": n / threaded_s,
        "mp_rows_per_s": n / mp_s,
        "mp_speedup": threaded_s / mp_s,
        "peak_rss_bytes": peak_rss,
        "full_tensor_bytes": full_tensor,
        "rss_fraction_of_full_tensor": peak_rss / full_tensor,
        "shard_peak_mib": shard_peak / 2**20,
        # The 50k tensor (~89 MB) is smaller than a warm interpreter's
        # RSS; the memory bound is only meaningful at full scale.
        "rss_bounded": quick or peak_rss < _RSS_FRACTION * full_tensor,
        "retries": int(threaded_result.sched_stats.get("retries", 0)),
    }
