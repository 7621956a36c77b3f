"""The fault-recovery benchmark behind ``python -m repro bench faults``.

A MapReduce word count runs fault-free and under the seed-7
``mapreduce`` chaos plan (worker deaths plus shuffle corruption).  The
job that loses workers must still finish with the right answer: the
price of recovery is re-executed *tasks*, never a stalled job.  The
point records both median times, their ratio, and the canonical
scenario's injected and recovered counts.

The suite is already small, so ``quick`` changes nothing here.
"""

from __future__ import annotations

from typing import Any

from repro import faults
from repro.benchutil import median_seconds
from repro.faults.chaos import named_plan, run_chaos
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.jobs import word_count_job

__all__ = ["chaotic_job", "fault_free_job", "measure"]

_DOCS = [(i, "alpha beta gamma delta " * 8) for i in range(8)]
_SEED = 7


def fault_free_job():
    engine = MapReduceEngine(n_workers=4, max_attempts=4)
    return engine.run(word_count_job(n_reduce_tasks=4), list(_DOCS))


def chaotic_job():
    """The same job under the seed-7 plan; returns (result, injector)."""
    plan = named_plan("mapreduce", seed=_SEED)
    engine = MapReduceEngine(n_workers=4, max_attempts=4)
    with faults.inject(plan) as injector:
        result = engine.run(word_count_job(n_reduce_tasks=4), list(_DOCS))
    return result, injector


def measure(quick: bool = False) -> dict[str, Any]:
    """Time both runs and replay the canonical scenario."""
    faults.disable()
    baseline_s = median_seconds(fault_free_job, 7)
    chaos_s = median_seconds(chaotic_job, 7)
    report = run_chaos("mapreduce", seed=_SEED)
    return {
        "workload": "mapreduce word count (8 docs, 4 workers)",
        "seed": _SEED,
        "baseline_s": baseline_s,
        "chaos_s": chaos_s,
        "recovery_overhead_ratio": chaos_s / baseline_s,
        "injected": report.injected_by_kind,
        "recovered": report.recovered,
        "chaos_ok": report.ok,
    }
