"""The process-pool benchmark behind ``python -m repro bench mp``.

The question this suite answers is the one the tentpole makes: does
``mode="mp"`` actually escape the GIL?  Two sweeps of *honestly
GIL-bound* scalar-Python compute run twice each — once through the
threaded executor, once through the process-pool backend — with the
scheduling layer, task structure, and arithmetic identical:

- **stencil** — independent heat rods advanced by the per-cell Python
  loop (:func:`repro.kernels.stencil.heat_steps_python`), one rod per
  task;
- **lcs** — the Assignment-5 ligand sweep scored by the scalar DP
  (:func:`repro.kernels.lcs.lcs_scores_python`), one chunk per task.

Threads cannot speed these up — the interpreter serializes them — so on
a multi-core box the pool backend must win; that ratio is the gate.
Executor construction and pool fork happen *outside* the timed region
(they are paid once per run, not once per task), and both arms submit
the same :class:`~repro.sched.core.Call` objects so the only variable
is the execution vehicle.

Two identity checks ride along, because a fast wrong answer is worse
than a slow right one:

- every task result must be equal across arms, element for element;
- the drug-design stepping workload's full rendered report
  (:func:`repro.sched.workloads.run_sched_workload`) must be
  byte-identical between ``mode="threaded"`` and ``mode="mp"``.

Results go to ``BENCH_mp.json`` through :mod:`repro.benchutil`.  The
identity gate always applies; the speedup gates apply only when the
machine actually has two or more cores (``cores`` is recorded so CI can
tell which gate ran) — on a single core a process pool is transport
overhead with no parallelism to buy it back.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Callable

import numpy as np

from repro.benchutil import peak_rss_bytes, stepping_logs_identical
from repro.config import resolve_mp_workers
from repro.drugdesign.ligands import DEFAULT_PROTEIN, generate_ligands
from repro.kernels.lcs import lcs_scores_python
from repro.kernels.stencil import heat_steps_python
from repro.sched.core import Call
from repro.sched.executor import WorkStealingExecutor

__all__ = ["measure"]


def _noop() -> None:
    """Warm-up body (module-level so the pool can pickle it)."""


def _median_arm(
    mode: str,
    workers: int,
    make_tasks: Callable[[], list[Call]],
    repeats: int,
) -> tuple[float, list[Any]]:
    """Median wall time of one submit/drain round on ``mode``.

    One executor serves every repeat: thread spin-up and (for mp) the
    pool fork are setup cost, excluded from the measurement by a no-op
    warm-up round before the clock starts.
    """
    executor = WorkStealingExecutor(n_workers=workers, mode=mode)
    try:
        executor.submit_batch([Call(_noop) for _ in range(workers)],
                              name="mpbench.warmup")
        executor.drain()
        times: list[float] = []
        results: list[Any] = []
        for _ in range(repeats):
            tasks = make_tasks()
            start = time.perf_counter()
            handles = executor.submit_batch(tasks, name="mpbench.task")
            executor.drain()
            results = [handle.result() for handle in handles]
            times.append(time.perf_counter() - start)
        return statistics.median(times), results
    finally:
        executor.close()


def _bench_pair(
    label: str,
    workers: int,
    make_tasks: Callable[[], list[Call]],
    repeats: int,
) -> dict[str, Any]:
    threaded_s, threaded_out = _median_arm(
        "threaded", workers, make_tasks, repeats
    )
    mp_s, mp_out = _median_arm("mp", workers, make_tasks, repeats)
    return {
        f"{label}_threaded_s": threaded_s,
        f"{label}_mp_s": mp_s,
        f"{label}_speedup": threaded_s / mp_s,
        f"{label}_identical": threaded_out == mp_out,
    }


def _stencil_tasks(n_rods: int, cells: int, steps: int) -> Callable[[], list[Call]]:
    rng = np.random.default_rng(41)
    rods = [rng.uniform(0.0, 100.0, cells).tolist() for _ in range(n_rods)]

    def make() -> list[Call]:
        return [Call(heat_steps_python, rod, 0.25, steps) for rod in rods]

    return make


def _lcs_tasks(n_ligands: int, max_ligand: int, chunk: int) -> Callable[[], list[Call]]:
    ligands = generate_ligands(n_ligands, max_ligand, seed=500)
    chunks = [ligands[i : i + chunk] for i in range(0, len(ligands), chunk)]

    def make() -> list[Call]:
        return [Call(lcs_scores_python, part, DEFAULT_PROTEIN)
                for part in chunks]

    return make


def measure(quick: bool = False) -> dict[str, Any]:
    """Run the mp-vs-threaded benchmark and return the raw point.

    ``quick`` shrinks sizes and repeats for the CI smoke step; the work
    per task stays large enough that the pickle hop does not dominate.
    """
    repeats = 3 if quick else 5
    workers = resolve_mp_workers()
    point: dict[str, Any] = {
        "workers": workers,
        "cores": os.cpu_count() or 1,
    }
    point.update(_bench_pair(
        "stencil", workers,
        _stencil_tasks(n_rods=2 * workers,
                       cells=256 if quick else 512,
                       steps=40 if quick else 120),
        repeats,
    ))
    point.update(_bench_pair(
        "lcs", workers,
        _lcs_tasks(n_ligands=96 if quick else 240,
                   max_ligand=7,
                   chunk=12),
        repeats,
    ))
    point["stepping_log_identical"] = stepping_logs_identical(
        workers=workers, seed=7, mode="mp"
    )
    # High-water mark over both arms, children included (the pool's
    # workers have been joined by close()); informational, not a gate.
    point["peak_rss_bytes"] = peak_rss_bytes()
    return point
