"""The ``megacohort`` workload: trace, sched, and chaos registrations.

One name in the unified :mod:`repro.workloads` registry, three modes:

- **trace** — a small streamed run, summarised in one line;
- **sched** — the shard fan-out dispatched through the caller's
  deterministic stepping executor, reporting a digest of the merged
  analysis (byte-identical across workers and ``mode``, because the
  merged statistics are a pure function of ``(n, shards, seed)``);
- **chaos** — a planned worker crash on one shard and a transient
  exception on another; the executor's retry regenerates each shard
  from its own seed, and the scenario passes only if the merged tables
  come out **byte-identical** to a fault-free reference.

Runtime imports live inside the runners (the registry's provider
pattern) so importing this module costs only the registration.
"""

from __future__ import annotations

from repro import workloads as registry
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.megacohort.shards import FAULT_SITE

__all__ = ["CHAOS_N", "CHAOS_SHARDS"]

#: Cohort size for the chaos/sched/trace demonstrations: big enough for
#: several shards, small enough for CI.
CHAOS_N = 1200
CHAOS_SHARDS = 6


def _tr_megacohort(threads: int) -> str:
    """A small streamed run: shard fan-out, merge, analysis."""
    from repro.megacohort.run import run_streamed

    result = run_streamed(n=CHAOS_N, shards=CHAOS_SHARDS,
                          workers=max(1, threads))
    analysis = result.analysis
    return (
        f"megacohort streamed: n={result.n} over {result.shards} shards, "
        f"t_emphasis={analysis.ttest_emphasis.t:.4f} "
        f"t_growth={analysis.ttest_growth.t:.4f}"
    )


def _wl_megacohort(executor, workers: int, seed: int) -> tuple[str, list[str]]:
    """Shard fan-out through the scheduler's deterministic executor."""
    from repro.megacohort.run import run_streamed

    result = run_streamed(n=CHAOS_N, shards=CHAOS_SHARDS, seed=seed,
                          executor=executor)
    analysis = result.analysis
    lines = [
        f"n={result.n} shards={result.shards}",
        f"t_emphasis={analysis.ttest_emphasis.t:.6f}",
        f"t_growth={analysis.ttest_growth.t:.6f}",
        f"d_emphasis={analysis.cohens_d_emphasis.d:.6f}",
        f"d_growth={analysis.cohens_d_growth.d:.6f}",
    ]
    summary = (
        f"megacohort fan-out: {result.shards} shard reductions merged "
        f"into one analysis of {result.n} students"
    )
    return summary, lines


def _megacohort_plan(seed: int) -> FaultPlan:
    return FaultPlan(name="megacohort", seed=seed, rules=(
        # A worker crash on shard 1's first attempt: the executor
        # re-queues the task and the shard regenerates from its seed.
        FaultRule(FAULT_SITE, FaultKind.CRASH, at=(0,),
                  where={"shard": 1}, note="shard 1 worker crash"),
        # A transient failure on shard 3, absorbed the same way.
        FaultRule(FAULT_SITE, FaultKind.EXCEPTION, at=(0,),
                  where={"shard": 3}, note="shard 3 transient"),
    ))


def _run_megacohort(injector, seed: int, threads: int) -> tuple[int, list[str], bool]:
    from repro.core.analysis import analyze
    from repro.megacohort.run import (
        _calibration,
        render_analysis_tables,
        run_streamed,
    )
    from repro.megacohort.shards import plan_shards, shard_stats
    from repro.stats.streaming import merge_indexed

    # Fault-free reference through the pure per-shard path (no fault
    # site fires, so the plan's invocation indices are untouched).
    targets, model, calibration = _calibration(seed)
    plan = plan_shards(CHAOS_N, CHAOS_SHARDS)
    reference = merge_indexed([
        (spec.index, shard_stats(spec, calibration.knobs, targets.skills,
                                 model.items_per_skill, seed))
        for spec in plan
    ])
    expected = render_analysis_tables(analyze(reference))

    # The faulted run: same cohort through the executor, plan active.
    result = run_streamed(n=CHAOS_N, shards=CHAOS_SHARDS, seed=seed,
                          workers=max(1, threads))
    recovered = int(result.sched_stats.get("retries", 0))
    identical = result.render_tables() == expected
    detail = [
        f"{result.shards} shards, 1 crash + 1 transient injected: "
        f"{recovered} executor retry(ies) regenerated the lost shards "
        f"from their own seeds",
        f"merged Tables 1-6 byte-identical to fault-free run: {identical}",
    ]
    ok = identical and recovered >= 2
    return recovered, detail, ok


registry.register(
    "megacohort",
    description="population-scale survey: shard, reduce, merge, report",
    trace=_tr_megacohort,
    sched=_wl_megacohort,
    chaos=_run_megacohort,
    chaos_plan=_megacohort_plan,
)
