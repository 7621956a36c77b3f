"""Model bench: distributed sort by range partitioning.

It asserts its defining qualitative shape — the lab observation the
course content predicts.
"""

import random

from repro.mapreduce import MapReduceEngine, distributed_sort_job


def test_distributed_sort(benchmark):
    rng = random.Random(17)
    values = [rng.uniform(0, 1000) for _ in range(2000)]
    records = list(enumerate(values))
    job = distributed_sort_job(boundaries=[250.0, 500.0, 750.0])
    engine = MapReduceEngine(n_workers=4)

    result = benchmark(engine.run, job, records)
    flat = [
        key
        for bucket in result.per_reduce_outputs
        for key, count in bucket
        for _ in range(count)
    ]
    assert flat == sorted(values)
    sizes = [sum(c for _k, c in bucket) for bucket in result.per_reduce_outputs]
    print()
    print(f"  bucket sizes (range partitioning): {sizes}")
    assert sum(sizes) == len(values)
