"""Advanced runtime features: tasks, the OMP environment, speculative
MapReduce, distributed sort, and the full gradebook.

Usage::

    python examples/advanced_runtime_lab.py

The material beyond the five assignments: what the library builds on top
of the paper's minimum, demonstrated end to end.
"""

from __future__ import annotations

from repro.cohort import form_teams, make_paper_sections
from repro.course import simulate_gradebook
from repro.mapreduce import MapReduceEngine, distributed_sort_job, word_count_job
from repro.mapreduce.stragglers import SlowTask, SpeculativeEngine
from repro.openmp import OpenMP, TaskGroup
from repro.openmp.env import OMPEnvironment


def main() -> None:
    print("=== OpenMP tasks: parallel fib over a task tree ===")
    group = TaskGroup(OpenMP(4))

    def fib(n: int) -> int:
        if n < 2:
            return n
        child = group.submit(fib, n - 1)
        return child.result() + fib(n - 2)

    print(f"fib(22) = {group.run(fib, 22)} (thousands of tasks, 4 threads)")

    print("\n=== OMP environment ===")
    env = OMPEnvironment.from_mapping({
        "OMP_NUM_THREADS": "4", "OMP_SCHEDULE": "dynamic,2",
    })
    print(f"OMP_NUM_THREADS=4 OMP_SCHEDULE=dynamic,2 -> "
          f"{env.num_threads} threads, {env.schedule}")

    print("\n=== Speculative execution masks a straggler ===")
    docs = [(f"d{i}", "lorem ipsum dolor sit " * 4) for i in range(16)]
    engine = SpeculativeEngine(n_workers=4, straggler_wait_s=0.05,
                               slow_tasks=[SlowTask(0, 0.5)])
    fast = engine.run(word_count_job(), docs, n_map_tasks=8)
    slow = engine.run(word_count_job(), docs, n_map_tasks=8, speculate=False)
    print(f"with backups: {fast.wall_seconds:.2f}s "
          f"(launched {fast.backups_launched}, won {fast.backups_won}); "
          f"without: {slow.wall_seconds:.2f}s; identical output: "
          f"{fast.result.output == slow.result.output}")

    print("\n=== Distributed sort with range partitioning ===")
    import random
    values = [random.Random(5).uniform(0, 100) for _ in range(1000)]
    job = distributed_sort_job(boundaries=[25.0, 50.0, 75.0])
    result = MapReduceEngine(4).run(job, list(enumerate(values)))
    flat = [k for b in result.per_reduce_outputs for k, c in b for _ in range(c)]
    print(f"1000 floats through 4 range buckets: globally sorted = "
          f"{flat == sorted(values)}")

    print("\n=== The full gradebook ===")
    s1, s2 = make_paper_sections()
    teams = (form_teams(s1.students, 13, id_prefix="S1T")
             + form_teams(s2.students, 13, id_prefix="S2T"))
    gradebook = simulate_gradebook(teams)
    print(f"{len(gradebook.grades)} students graded; cohort mean "
          f"{gradebook.mean_total:.1f}/100")
    print(f"offenders (peer-rating zero rules applied): {gradebook.offenders}")
    for student_id in gradebook.offenders:
        grade = gradebook.grades[student_id]
        print(f"  {student_id}: PBL scores {tuple(round(s, 1) for s in grade.pbl_scores)} "
              f"-> total {grade.total:.1f}")


if __name__ == "__main__":
    main()
