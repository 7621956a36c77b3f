"""The speculative-execution benchmark behind ``python -m repro bench spec``.

The question this suite answers is the tentpole's: do backup tasks
actually cut the tail?  A batch of small, pure tasks runs twice through
the *same* threaded executor configuration — once plain, once with a
:class:`~repro.sched.spec.SpecPolicy` installed — against a **seeded
stall plan**: a ``random.Random(f"{seed}:spec-stalls")`` draw picks a
few task indices and pins them behind a long stall.  A stalled body
does not burn CPU; it waits on its family's *obsolete* event through
the injectable clock (:func:`repro.sched.spec.obsolete_event`), exactly
the in-process analogue of a task stuck on a slow machine.  In the
plain arm the event never fires, so the stall runs its full course and
the batch's p99 task latency *is* the stall.  In the speculative arm
the straggler policy launches a backup on an idle worker, the backup
commits in microseconds, the losing primary is woken and discarded —
and the p99 collapses toward the healthy-task latency.

Three gates, because a fast wrong answer is worse than a slow right one:

- **tail** — speculative p99 task latency strictly below the plain
  arm's, with at least one backup launched and won;
- **results** — every committed value identical across arms (each task
  is a pure function of its index, so speculation cannot change a bit);
- **stepping log** — the drug-design stepping report rendered with and
  without ``speculate=True`` must match byte for byte (the canonical
  winner rule: in stepping mode no task is ever in flight at an idle
  probe, so zero backups launch and the log stays a pure function of
  ``(workload, workers, seed)``).

The stall is a wait, not compute, so the gate applies on any core
count — ``gate_applied`` is always true for this suite.  Tests pass a
:class:`~repro.faults.clock.ScaledClock` so CI never real-sleeps the
full stall; the committed ``BENCH_spec.json`` uses the real clock.
"""

from __future__ import annotations

import math
import random
import threading
from typing import Any

from repro.benchutil import stepping_logs_identical
from repro.faults.clock import SYSTEM_CLOCK
from repro.sched.core import Call
from repro.sched.executor import WorkStealingExecutor
from repro.sched.spec import SpecPolicy, is_backup, obsolete_event

__all__ = ["measure", "stall_plan"]

#: Executor width for both arms (threads; stalls release the GIL).
_WORKERS = 4
#: Seed of the stall plan and of the stepping-log comparison.
_SEED = 7


def stall_plan(seed: int, n_tasks: int, n_stalls: int,
               stall_s: float) -> dict[int, float]:
    """The seeded map of task index → stall seconds (same for both arms)."""
    rng = random.Random(f"{seed}:spec-stalls")
    indices = rng.sample(range(n_tasks), n_stalls)
    return {index: stall_s for index in sorted(indices)}


def _task_value(index: int) -> int:
    """The pure payload: what every copy of task ``index`` must return."""
    return sum((index * j + 1) % 97 for j in range(50))


def _spec_task(index: int, stall_s: float, clock: Any) -> tuple[int, float]:
    """One task body: optionally stall, then compute; stamp completion.

    The stall models a slow *machine*, not slow work, so a backup copy
    (dispatched to a healthy worker) skips it.  A stalled primary waits
    on the family's obsolete event through ``clock`` — its backup
    committing elsewhere wakes it immediately, the in-process analogue
    of killing a straggler on a slow machine.  In a non-speculative run
    (or for a healthy task) the event never fires and the wait runs its
    full course.
    """
    if stall_s > 0.0 and not is_backup():
        kill = obsolete_event() or threading.Event()
        clock.wait(kill, stall_s)
    return _task_value(index), clock.monotonic()


def _percentile(latencies: list[float], q: float) -> float:
    """The ``q``-quantile by rank (nearest-rank, ``q`` in [0, 1])."""
    ordered = sorted(latencies)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def _run_arm(
    speculate: bool,
    n_tasks: int,
    stalls: dict[int, float],
    clock: Any,
    spec_k: float,
    min_age_s: float,
) -> dict[str, Any]:
    """One pass over the stall plan; returns values, latencies, counters."""
    executor = WorkStealingExecutor(
        n_workers=_WORKERS, seed=7, deterministic=False
    )
    if speculate:
        executor.speculate(
            SpecPolicy(k=spec_k, min_age_s=min_age_s), clock=clock
        )
    try:
        tasks = [
            Call(_spec_task, index, stalls.get(index, 0.0), clock)
            for index in range(n_tasks)
        ]
        start = clock.monotonic()
        handles = executor.submit_batch(tasks, name="specbench.task")
        executor.drain()
        outcomes = [handle.result() for handle in handles]
        wall_s = clock.monotonic() - start
        stats = executor.stats()
    finally:
        executor.close()
    values = [value for value, _ in outcomes]
    latencies = [max(0.0, stamp - start) for _, stamp in outcomes]
    return {
        "values": values,
        "latencies": latencies,
        "wall_s": wall_s,
        "backups_launched": stats.backups_launched,
        "backups_won": stats.backups_won,
        "backup_time_saved_s": stats.backup_time_saved_s,
    }


def measure(quick: bool = False, clock: Any = None) -> dict[str, Any]:
    """Run the speculation benchmark and return the raw point.

    ``quick`` shrinks the batch and the stall for the CI smoke step.
    ``clock`` (tests) swaps in a scaled clock so the stall is nominal
    seconds, not wall seconds — latencies are reported in the clock's
    own units either way, and the gate compares like with like.
    """
    clock = clock if clock is not None else SYSTEM_CLOCK
    n_tasks = 24 if quick else 48
    n_stalls = 2 if quick else 3
    stall_s = 0.35 if quick else 0.8
    stalls = stall_plan(_SEED, n_tasks, n_stalls, stall_s)
    arms = {
        label: _run_arm(speculate, n_tasks, stalls, clock,
                        spec_k=2.0, min_age_s=0.05)
        for label, speculate in (("base", False), ("spec", True))
    }
    point: dict[str, Any] = {
        "workers": _WORKERS,
        "seed": _SEED,
        "n_tasks": n_tasks,
        "n_stalls": n_stalls,
        "stall_s": stall_s,
    }
    for label, arm in arms.items():
        point[f"{label}_wall_s"] = arm["wall_s"]
        point[f"{label}_p50_s"] = _percentile(arm["latencies"], 0.50)
        point[f"{label}_p99_s"] = _percentile(arm["latencies"], 0.99)
    point["backups_launched"] = arms["spec"]["backups_launched"]
    point["backups_won"] = arms["spec"]["backups_won"]
    point["backup_time_saved_s"] = arms["spec"]["backup_time_saved_s"]
    point["base_backups_launched"] = arms["base"]["backups_launched"]
    point["results_identical"] = arms["base"]["values"] == arms["spec"]["values"]
    point["stepping_log_identical"] = stepping_logs_identical(
        workers=4, seed=_SEED, speculate=True
    )
    return point
