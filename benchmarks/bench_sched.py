"""Scheduler cost: work-stealing dispatch vs per-runtime pools, and the
warm-cache speedup.

Shape criteria (absolute numbers are machine-dependent, shapes are
not): dispatching a MapReduce job through the shared scheduler stays
within a small multiple of the engine's private thread pool — the price
of determinism is bookkeeping, never a stalled phase; steals occur
(the balancing actually happens); and a content-addressed warm run is
dramatically faster than its cold run because it executes nothing.

``python -m repro bench sched`` times the same jobs
(:mod:`repro.sched.bench`) and writes the ``BENCH_sched.json`` point.
"""

from __future__ import annotations

import tempfile

from repro.sched import ResultCache, WorkStealingExecutor
from repro.sched.bench import pool_job, sched_job
from repro.sched.workloads import run_sched_workload


def test_pool_dispatch_baseline(benchmark):
    """Baseline: the engine's private ThreadPoolExecutor per phase."""
    result = benchmark(pool_job)
    assert result.output


def test_scheduler_dispatch(benchmark):
    """The same job through the shared deterministic scheduler; the
    answer must be identical to the pool run's."""
    result, ex = benchmark(sched_job)
    assert result.output == pool_job().output
    assert ex.stats().executed > 0


def test_steals_balance_an_uneven_load(benchmark):
    """A skewed task mix must produce steals (the balancing exists)."""

    def run():
        ex = WorkStealingExecutor(n_workers=4, seed=7)
        ex.map([lambda i=i: sum(range(100 * (i % 5))) for i in range(32)])
        return ex

    ex = benchmark(run)
    assert ex.stats().steals > 0


def test_warm_cache_is_a_hit(benchmark):
    """A warm content-addressed run replays without executing."""
    with tempfile.TemporaryDirectory() as tmp:
        run_sched_workload("drugdesign", workers=4, seed=7,
                           cache=ResultCache(directory=tmp))
        warm = benchmark(
            lambda: run_sched_workload("drugdesign", workers=4, seed=7,
                                       cache=ResultCache(directory=tmp))
        )
    assert warm.cache_hits == 1 and warm.cache_misses == 0
