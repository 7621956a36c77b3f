"""The scheduler benchmark behind ``python -m repro bench sched``.

A MapReduce word count is dispatched through the engine's private
thread pool and through the shared deterministic work-stealing
scheduler: the price of determinism is bookkeeping, never a stalled
phase, and the scheduled run must steal (the balancing happens).  Then the
drug-design stepping workload runs cold and warm against a
content-addressed result cache: the warm run replays the stored result
without executing anything, so every lookup must hit.

The suite is already small, so ``quick`` changes nothing here.
"""

from __future__ import annotations

import tempfile
from typing import Any

from repro.benchutil import median_seconds
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.jobs import word_count_job
from repro.sched.cache import ResultCache
from repro.sched.executor import WorkStealingExecutor
from repro.sched.workloads import run_sched_workload

__all__ = ["measure", "pool_job", "sched_job"]

_DOCS = [(i, "alpha beta gamma delta epsilon zeta " * 6) for i in range(12)]
_SEED = 7


def pool_job():
    engine = MapReduceEngine(n_workers=4)
    return engine.run(word_count_job(n_reduce_tasks=4), list(_DOCS))


def sched_job():
    """The same job through the scheduler; returns (result, executor)."""
    ex = WorkStealingExecutor(n_workers=4, seed=_SEED)
    engine = MapReduceEngine(n_workers=4, scheduler=ex)
    return engine.run(word_count_job(n_reduce_tasks=4), list(_DOCS)), ex


def measure(quick: bool = False) -> dict[str, Any]:
    """Time both dispatch paths and the cold/warm cache replay."""
    pool_s = median_seconds(pool_job, 7)
    sched_s = median_seconds(sched_job, 7)
    stats = sched_job()[1].stats().as_dict()

    with tempfile.TemporaryDirectory() as tmp:
        def drugdesign():
            return run_sched_workload("drugdesign", workers=4, seed=_SEED,
                                      cache=ResultCache(directory=tmp))

        cold_s = median_seconds(drugdesign, 1)
        warm_s = median_seconds(drugdesign, 7)
        warm = drugdesign()

    return {
        "workload": "mapreduce word count (12 docs, 4 workers) + "
                    "drugdesign cache replay",
        "seed": _SEED,
        "pool_s": pool_s,
        "sched_s": sched_s,
        "dispatch_overhead_ratio": sched_s / pool_s,
        "steal_rate": stats["steal_rate"],
        "steals": stats["steals"],
        "queue_high_water": stats["high_water"],
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": cold_s / warm_s if warm_s else None,
        "cache_hit_ratio": warm.cache_hits / (warm.cache_hits
                                              + warm.cache_misses),
    }
