"""Traceable workloads for ``python -m repro trace``.

Each workload is a small, deterministic exercise of one (or several) of
the reproduction's runtimes, chosen to produce an *instructive* trace —
the kind a student opens in Perfetto and immediately sees the lecture
concept: fork/join team spans, barrier convoys, MapReduce re-execution,
MPI message matching, drug-design load imbalance.

Workloads run under whatever telemetry session the caller has enabled;
they do not manage sessions themselves (so tests can compose them).
Every function returns a one-line human summary for the CLI to print.

This module keeps no name table of its own: every workload is registered
as the ``trace`` mode of the unified :mod:`repro.workloads` registry, so
the same names resolve from the ``trace``/``chaos``/``sched`` CLIs and
the ``repro.serve`` job service alike.
"""

from __future__ import annotations

from repro import workloads as registry

__all__ = ["workload_names", "run_workload"]

#: Small deterministic corpus for the MapReduce trace and chaos workloads.
DOCUMENTS: tuple[tuple[int, str], ...] = (
    (0, "the fork joins the team and the team joins the fork"),
    (1, "a barrier waits for every thread every time"),
    (2, "map shuffle reduce map shuffle reduce"),
    (3, "the master re executes failed tasks"),
    (4, "stragglers get backup tasks near the end"),
    (5, "the reduction combines partial sums into one"),
    (6, "messages match by source and tag in order"),
    (7, "the scatter hands one block to every rank"),
)


def _run_fork_join(threads: int) -> str:
    from repro.patternlets.forkjoin import run_fork_join

    demo = run_fork_join(threads)
    return f"fork-join patternlet on {demo.num_threads} threads"


def _run_barrier(threads: int) -> str:
    from repro.patternlets.barrier_sync import run_barrier_demo

    run_barrier_demo(threads)
    return f"barrier patternlet on {threads} threads"


def _run_reduction(threads: int) -> str:
    from repro.patternlets.reduction_loop import run_reduction_loop

    demo = run_reduction_loop(threads, 500)
    return f"reduction patternlet on {threads} threads (n=500)"


def _run_mapreduce(threads: int) -> str:
    """Word count with an injected worker death (visible re-execution),
    cross-checked by an OpenMP parallel count — so one trace carries
    spans from two runtimes: `mr.*` tasks and `omp.*` team threads."""
    from repro.mapreduce.engine import MapReduceEngine, TaskFailure
    from repro.mapreduce.jobs import tokenize, word_count_job
    from repro.openmp.runtime import OpenMP

    engine = MapReduceEngine(
        n_workers=threads,
        failures=[TaskFailure("map", 0, 0), TaskFailure("reduce", 1, 0)],
    )
    result = engine.run(word_count_job(n_reduce_tasks=4), list(DOCUMENTS))
    counted = dict(result.output)

    # Cross-check on the OpenMP runtime: each team member counts one
    # slice of the corpus; a critical section merges the partials.
    omp = OpenMP(num_threads=min(threads, len(DOCUMENTS)))
    merged: dict[str, int] = {}

    def body(ctx) -> None:
        partial: dict[str, int] = {}
        for doc_id, text in DOCUMENTS:
            if doc_id % ctx.num_threads == ctx.thread_num:
                for word in tokenize(text):
                    partial[word] = partial.get(word, 0) + 1
        with ctx.critical("merge"):
            for word, count in partial.items():
                merged[word] = merged.get(word, 0) + count
        ctx.barrier()

    omp.parallel(body)
    if merged != counted:
        raise AssertionError("OpenMP cross-check disagrees with MapReduce")
    return (
        f"word count over {len(DOCUMENTS)} documents: "
        f"{len(result.output)} distinct words, {result.retries} retried "
        f"task(s), OpenMP cross-check ok"
    )


def _run_stragglers(threads: int) -> str:
    from repro.mapreduce.jobs import word_count_job
    from repro.mapreduce.stragglers import SlowTask, SpeculativeEngine

    engine = SpeculativeEngine(
        n_workers=threads,
        straggler_wait_s=0.02,
        slow_tasks=[SlowTask(task_index=0, delay_s=0.2)],
    )
    outcome = engine.run(word_count_job(n_reduce_tasks=2), list(DOCUMENTS))
    return (
        f"speculative word count: {outcome.backups_launched} backup(s) "
        f"launched, {outcome.backups_won} won"
    )


def _run_mpi(threads: int) -> str:
    """Ring shift + collectives on every rank (message-matching trace)."""
    from repro.mpi.comm import Communicator, mpi_run

    def program(comm: Communicator) -> int:
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        token = comm.sendrecv(comm.rank, dest=right, source=left)
        comm.barrier()
        total = comm.allreduce(token, op=lambda a, b: a + b)
        comm.barrier()
        return total

    totals = mpi_run(threads, program)
    return f"ring + allreduce on {threads} ranks (sum={totals[0]})"


def _run_drugdesign(threads: int) -> str:
    """All four solver styles over one ligand set — compare their shapes
    (work-shared loop vs atomic counter vs scatter/allreduce) side by
    side in a single trace."""
    from repro.drugdesign.ligands import DEFAULT_PROTEIN, generate_ligands
    from repro.drugdesign.mpi_solver import solve_mpi
    from repro.drugdesign.solvers import (
        solve_cxx11_threads,
        solve_openmp,
        solve_sequential,
    )

    ligands = generate_ligands(24, max_ligand=5, seed=500)
    sequential = solve_sequential(ligands, DEFAULT_PROTEIN)
    for solver in (
        lambda: solve_openmp(ligands, DEFAULT_PROTEIN, threads),
        lambda: solve_cxx11_threads(ligands, DEFAULT_PROTEIN, threads),
        lambda: solve_mpi(ligands, DEFAULT_PROTEIN, threads),
    ):
        if not solver().same_answer_as(sequential):
            raise AssertionError("solver styles disagree")
    return (
        f"4 solver styles over {len(ligands)} ligands agree "
        f"(max score {sequential.max_score})"
    )


for _name, _fn in (
    ("fork_join", _run_fork_join),
    ("barrier", _run_barrier),
    ("reduction", _run_reduction),
    ("mapreduce", _run_mapreduce),
    ("stragglers", _run_stragglers),
    ("mpi", _run_mpi),
    ("drugdesign", _run_drugdesign),
):
    registry.register(_name, trace=_fn)


def workload_names() -> list[str]:
    return registry.names("trace")


def run_workload(name: str, threads: int = 4) -> str:
    """Run one named workload; raises KeyError for unknown names and
    :class:`repro.workloads.WorkloadModeError` for non-trace ones."""
    payload = registry.run_job("trace", name, {"threads": threads})
    return payload["summary"]
