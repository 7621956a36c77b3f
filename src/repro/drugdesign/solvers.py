"""The three solution styles the assignment requires.

All three must find the same answer (property-tested); they differ in how
work is distributed:

- :func:`solve_sequential` — one loop;
- :func:`solve_openmp` — a work-shared loop on our OpenMP-style runtime
  with a max-reduction over (score, ligand) pairs — the idiom of the
  exemplar's ``#pragma omp parallel for`` version;
- :func:`solve_cxx11_threads` — N explicit threads pulling ligand indices
  from an atomic counter — the structure of the exemplar's C++11
  ``std::thread`` version;
- :func:`solve_sched` — the scoring sweep dispatched through the shared
  :mod:`repro.sched` work-stealing executor, one task per ligand.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from repro import kernels
from repro.drugdesign.scoring import dp_cells
from repro.openmp.loops import Schedule, run_parallel_for
from repro.openmp.reduction import Reduction
from repro.openmp.runtime import OpenMP
from repro.faults import hooks as faults
from repro.openmp.sync import AtomicCounter
from repro.telemetry import instrument as telemetry

__all__ = [
    "DrugDesignResult",
    "score_ligand",
    "score_ligands",
    "solve_sequential",
    "solve_openmp",
    "solve_cxx11_threads",
    "solve_sched",
]


def score_ligand(ligand: str, protein: str) -> int:
    """Score one ligand, with per-ligand timing when telemetry is on.

    The per-ligand span is what makes load imbalance *visible*: ligand
    costs scale with length², so a trace of a static schedule shows some
    threads dragging long spans while others idle — the assignment's
    schedule lesson, straight from the timeline view.
    """
    # Chaos hook: an EXCEPTION rule makes this ligand's scoring fail
    # transiently; keyed by ligand so the failure schedule is the same
    # whichever thread picks the ligand up.  Recovery belongs to the
    # caller's RetryPolicy (see repro.faults.chaos.drugdesign).
    faults.fire("dd.score", key=ligand, ligand=ligand)
    if not telemetry.enabled():
        return kernels.lcs_score(ligand, protein)
    start = time.perf_counter()
    with telemetry.span("dd.score", category="ligand",
                        ligand=ligand, length=len(ligand)):
        score = kernels.lcs_score(ligand, protein)
    telemetry.observe_us("dd.ligand_us", (time.perf_counter() - start) * 1e6)
    telemetry.inc("dd.ligands_scored")
    return score


def score_ligands(ligands: list[str], protein: str) -> list[int]:
    """Score a batch of ligands in one kernel call.

    The batched fast path (:func:`repro.kernels.lcs_scores`): one
    kernel dispatch and one span per *batch*, not per ligand.  The
    per-ligand chaos hook still fires for each ligand — a fault
    schedule keyed by ligand must not change because the caller
    batched — and one ``dd.score_batch`` span covers the batch.
    """
    for ligand in ligands:
        faults.fire("dd.score", key=ligand, ligand=ligand)
    with telemetry.span("dd.score_batch", category="ligand",
                        batch=len(ligands)):
        scores = kernels.lcs_scores(ligands, protein)
    telemetry.inc("dd.ligands_scored", len(ligands))
    return scores


@dataclass(frozen=True)
class DrugDesignResult:
    """Outcome of one solver run."""

    style: str
    num_threads: int
    max_score: int
    best_ligands: tuple[str, ...]    # sorted, deduplicated
    total_cells: int                 # DP work performed (the cost model)
    per_thread_cells: tuple[int, ...]

    def same_answer_as(self, other: "DrugDesignResult") -> bool:
        return (
            self.max_score == other.max_score
            and self.best_ligands == other.best_ligands
        )


def _best(scored: list[tuple[int, str]]) -> tuple[int, tuple[str, ...]]:
    if not scored:
        return 0, ()
    max_score = max(score for score, _ in scored)
    winners = sorted({lig for score, lig in scored if score == max_score})
    return max_score, tuple(winners)


def solve_sequential(ligands: list[str], protein: str) -> DrugDesignResult:
    """One thread, one batched kernel call."""
    with telemetry.span("dd.solve", category="solver", style="sequential"):
        scored = list(zip(score_ligands(ligands, protein), ligands))
    max_score, best = _best(scored)
    cells = sum(dp_cells(lig, protein) for lig in ligands)
    return DrugDesignResult(
        style="sequential",
        num_threads=1,
        max_score=max_score,
        best_ligands=best,
        total_cells=cells,
        per_thread_cells=(cells,),
    )


def solve_openmp(
    ligands: list[str],
    protein: str,
    num_threads: int = 4,
    schedule: Schedule | None = None,
) -> DrugDesignResult:
    """Work-shared loop with a max-reduction over (score, ligand) keys.

    The reduction key is the pair ``(score, ligand)`` so ties resolve
    deterministically; all tying ligands are recovered afterwards from the
    per-thread candidate lists.
    """
    omp = OpenMP(num_threads)
    candidates: list[list[tuple[int, str]]] = [[] for _ in range(num_threads)]
    cells = [0] * num_threads

    def body(i: int, ctx) -> None:
        score = score_ligand(ligands[i], protein)
        candidates[ctx.thread_num].append((score, ligands[i]))
        cells[ctx.thread_num] += dp_cells(ligands[i], protein)

    with telemetry.span("dd.solve", category="solver", style="openmp",
                        num_threads=num_threads):
        run_parallel_for(
            omp, len(ligands), body,
            schedule or Schedule.dynamic(chunk=1),   # the exemplar uses dynamic:
            # ligand costs vary with length, so static would load-imbalance.
        )
    scored = [pair for lane in candidates for pair in lane]
    max_score, best = _best(scored)
    return DrugDesignResult(
        style="openmp",
        num_threads=num_threads,
        max_score=max_score,
        best_ligands=best,
        total_cells=sum(cells),
        per_thread_cells=tuple(cells),
    )


def solve_cxx11_threads(
    ligands: list[str], protein: str, num_threads: int = 4
) -> DrugDesignResult:
    """Explicit threads + an atomic next-task counter (the C++11 shape)."""
    counter = AtomicCounter(0)
    candidates: list[list[tuple[int, str]]] = [[] for _ in range(num_threads)]
    cells = [0] * num_threads

    solver_id: int | None = None

    def worker(tid: int) -> None:
        telemetry.set_thread(tid, f"dd-worker-{tid}", process="drugdesign")
        with telemetry.span("dd.worker", category="solver",
                            parent_id=solver_id, thread=tid):
            while True:
                i = counter.fetch_add(1)
                if i >= len(ligands):
                    break
                score = score_ligand(ligands[i], protein)
                candidates[tid].append((score, ligands[i]))
                cells[tid] += dp_cells(ligands[i], protein)

    with telemetry.span("dd.solve", category="solver", style="cxx11_threads",
                        num_threads=num_threads) as solver_span:
        if solver_span is not None:
            solver_id = solver_span.span_id
        threads = [
            threading.Thread(target=worker, args=(tid,), name=f"dd-worker-{tid}")
            for tid in range(num_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    scored = [pair for lane in candidates for pair in lane]
    max_score, best = _best(scored)
    return DrugDesignResult(
        style="cxx11_threads",
        num_threads=num_threads,
        max_score=max_score,
        best_ligands=best,
        total_cells=sum(cells),
        per_thread_cells=tuple(cells),
    )


def _score_group(batch: list[str], protein: str) -> list[tuple[int, str]]:
    """Picklable ``mode="mp"`` task body: one batched kernel call.

    Runs in a pool child, which carries no telemetry session and no
    fault-injection session — so :func:`solve_sched` only ships groups
    across the process boundary when no fault session is active (the
    chaos hooks must keep firing in-process, keyed by ligand).
    """
    from repro.kernels.lcs import lcs_scores_bitparallel

    return list(zip(lcs_scores_bitparallel(batch, protein), batch))


def _auto_chunk(ligands: list[str], protein: str, scheduler: Any) -> int:
    """Measured chunk size: dispatch overhead vs per-ligand kernel time.

    The per-item probe scores a small sample through the kernel
    directly — not through :func:`score_ligand` — so no chaos hook fires
    and no fault schedule shifts; the dispatch probe runs on a throwaway
    executor (:func:`repro.sched.tune.measure_dispatch_overhead_s`), so
    the caller's canonical event log stays a pure function of the real
    sweep.
    """
    from repro.sched import tune as _tune

    if not ligands:
        return 1
    sample = ligands[: min(16, len(ligands))]
    start = time.perf_counter()
    kernels.lcs_scores(sample, protein)
    per_item_s = (time.perf_counter() - start) / len(sample)
    overhead_s = _tune.measure_dispatch_overhead_s(
        mode=getattr(scheduler, "mode", "threaded"),
        n_workers=scheduler.n_workers,
    )
    return _tune.autotune_chunk(
        overhead_s, per_item_s, len(ligands), scheduler.n_workers
    )


def solve_sched(
    ligands: list[str], protein: str, scheduler: Any, chunk: int | str = 1
) -> DrugDesignResult:
    """Score through a :class:`repro.sched.WorkStealingExecutor`.

    ``chunk=1`` (default) submits one task per ligand; the steal
    schedule (hence the per-worker cell distribution) is a pure function
    of the scheduler's seed in its deterministic mode, so an imbalance
    seen once can be replayed.  ``chunk=k`` submits one task per k
    ligands, each scored with one batched kernel call
    (:func:`score_ligands`) — the amortized dispatch path the kernel
    benchmark measures: k ligands ride one scheduler round-trip instead
    of k.  ``chunk="auto"`` sizes k from the measured dispatch overhead
    (:mod:`repro.sched.tune`); the measurement is wall-clock, so pass an
    explicit chunk where the task structure must replay exactly.

    On a ``mode="mp"`` scheduler (and no active fault session) each
    group ships to a pool child as a picklable :class:`Call` — same
    task count, order, and scores as the threaded closures, so the
    canonical event log and the report are byte-identical across modes.
    """
    from repro.sched.core import Call

    if chunk == "auto":
        chunk = _auto_chunk(ligands, protein, scheduler)
    if not isinstance(chunk, int) or isinstance(chunk, bool) or chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk!r}")
    ship = (getattr(scheduler, "mode", "threaded") == "mp"
            and not faults.enabled())
    with telemetry.span("dd.solve", category="solver", style="sched",
                        num_threads=scheduler.n_workers, chunk=chunk):
        if chunk == 1:
            groups = [[lig] for lig in ligands]
            if ship:
                handles = scheduler.submit_batch(
                    [Call(_score_group, [lig], protein) for lig in ligands],
                    name="dd.score",
                )
            else:
                handles = scheduler.submit_batch(
                    [
                        lambda lig=lig: [(score_ligand(lig, protein), lig)]
                        for lig in ligands
                    ],
                    name="dd.score",
                )
        else:
            groups = [
                list(ligands[i : i + chunk])
                for i in range(0, len(ligands), chunk)
            ]
            if ship:
                handles = scheduler.submit_batch(
                    [Call(_score_group, batch, protein) for batch in groups],
                    name="dd.score_chunk",
                )
            else:
                handles = scheduler.submit_batch(
                    [
                        lambda batch=batch: list(
                            zip(score_ligands(batch, protein), batch)
                        )
                        for batch in groups
                    ],
                    name="dd.score_chunk",
                )
        scheduler.drain()
        scored = [pair for handle in handles for pair in handle.result()]
        if ship:
            # The children ran without a telemetry session; keep the
            # ligand counter honest from the parent side.
            telemetry.inc("dd.ligands_scored", len(ligands))
    cells = [0] * scheduler.n_workers
    for handle, group in zip(handles, groups):
        worker = handle.worker if handle.worker is not None else 0
        cells[worker] += sum(dp_cells(lig, protein) for lig in group)
    max_score, best = _best(scored)
    return DrugDesignResult(
        style="sched",
        num_threads=scheduler.n_workers,
        max_score=max_score,
        best_ligands=best,
        total_cells=sum(cells),
        per_thread_cells=tuple(cells),
    )
