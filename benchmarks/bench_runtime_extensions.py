"""Runtime extensions: tasks, MPI collectives, speculation.

Benchmarks for the subsystems built beyond the paper's minimum — the
OpenMP task pool on a recursive tree, the MPI collective set, the
distributed drug-design solver, and straggler speculation — each with
its defining property asserted.
"""

from repro.drugdesign import generate_ligands, solve_mpi, solve_sequential
from repro.drugdesign.ligands import DEFAULT_PROTEIN
from repro.mapreduce import word_count_job
from repro.mapreduce.stragglers import SlowTask, SpeculativeEngine
from repro.mpi import mpi_run
from repro.openmp import OpenMP, TaskGroup


def test_task_tree_fib(benchmark):
    def run():
        group = TaskGroup(OpenMP(4))

        def fib(n):
            if n < 2:
                return n
            a = group.submit(fib, n - 1)
            return a.result() + fib(n - 2)

        return group.run(fib, 16)

    assert benchmark(run) == 987


def test_mpi_allreduce_throughput(benchmark):
    def run():
        return mpi_run(
            4, lambda comm: comm.allreduce(comm.rank + 1, op=lambda a, b: a + b)
        )

    assert benchmark(run) == [10, 10, 10, 10]


def test_mpi_drug_design(benchmark):
    ligands = generate_ligands(80, 5)
    sequential = solve_sequential(ligands, DEFAULT_PROTEIN)
    result = benchmark(solve_mpi, ligands, DEFAULT_PROTEIN, 4)
    assert result.same_answer_as(sequential)
    assert sum(result.per_thread_cells) == sequential.total_cells


def test_speculative_execution(benchmark):
    docs = [(f"d{i}", "epsilon zeta eta theta " * 4) for i in range(16)]
    engine = SpeculativeEngine(
        n_workers=4, straggler_wait_s=0.02, slow_tasks=[SlowTask(0, 0.3)],
    )

    result = benchmark.pedantic(
        lambda: engine.run(word_count_job(), docs, n_map_tasks=8),
        rounds=3, iterations=1,
    )
    print()
    print(f"  backups launched {result.backups_launched}, "
          f"won {result.backups_won}, wall {result.wall_seconds:.3f}s")
    assert result.result.as_dict()["epsilon"] == 64
    # Speculation masks the 0.3 s straggler almost entirely.
    assert result.wall_seconds < 0.15
