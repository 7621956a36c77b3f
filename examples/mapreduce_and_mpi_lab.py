"""Assignment 5's MapReduce reading plus the §V MPI extension, executable.

Usage::

    python examples/mapreduce_and_mpi_lab.py

Part 1 runs the canonical MapReduce computations (word count with fault
injection, distributed grep, inverted index, per-key mean).  Part 2 runs
the 1-D heat stencil with halo exchange on the message-passing
simulator.
"""

from __future__ import annotations

from repro.mapreduce import (
    MapReduceEngine,
    TaskFailure,
    grep_job,
    inverted_index_job,
    mean_by_key_job,
    word_count_job,
)
from repro.mpi import heat_mpi, heat_sequential

DOCUMENTS = [
    ("genesis", "in the beginning was the map and the map was with reduce"),
    ("tutorial", "a map emits key value pairs and a reduce folds values per key"),
    ("logbook", "worker seven failed at dawn the master re executed its map task"),
]


def main() -> None:
    print("=== Part 1: MapReduce " + "=" * 40)
    engine = MapReduceEngine(n_workers=4)

    counts = engine.run(word_count_job(), DOCUMENTS)
    top = sorted(counts.output, key=lambda kv: -kv[1])[:5]
    print(f"word count (top 5): {top}")

    flaky = MapReduceEngine(
        n_workers=4,
        failures=[TaskFailure("map", 0, 0), TaskFailure("reduce", 1, 0)],
    )
    recovered = flaky.run(word_count_job(), DOCUMENTS)
    print(f"with injected worker deaths: identical output = "
          f"{recovered.output == counts.output} (retries: {recovered.retries})")

    lines = [(i, text) for i, (_k, text) in enumerate(DOCUMENTS)]
    matches = engine.run(grep_job(r"master"), lines)
    print(f"grep 'master': {[line for _i, line in matches.output]}")

    index = engine.run(inverted_index_job(), DOCUMENTS).as_dict()
    print(f"inverted index for 'map': {index['map']}")

    temperatures = [("mon", 20), ("mon", 24), ("tue", 18), ("tue", 22), ("tue", 23)]
    means = engine.run(mean_by_key_job(), temperatures).as_dict()
    print(f"mean temperature per day: {means}")

    print("\n=== Part 2: MPI (the paper's planned extension) " + "=" * 14)
    rod = [0.0] * 16
    rod[0], rod[-1] = 100.0, 50.0
    sequential = heat_sequential(rod, steps=80)
    distributed = heat_mpi(rod, steps=80, n_ranks=4)
    print(f"1-D heat stencil with halo exchange on 4 ranks: matches the "
          f"sequential solver exactly = {distributed == sequential}")
    print("  temperature profile: "
          + " ".join(f"{t:5.1f}" for t in distributed[::3]))


if __name__ == "__main__":
    main()
