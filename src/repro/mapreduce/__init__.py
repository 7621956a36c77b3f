"""A threaded MapReduce engine.

Assignment 5 has students read Google's "Introduction to Parallel
Programming and MapReduce" and answer: what is a map, what is a reduce,
how is the model executed, and "list and describe three examples that are
expressed as MapReduce computations".  This package makes the reading
executable:

- :mod:`repro.mapreduce.engine` — the runtime: map tasks → combiner →
  hash partitioning → sorted shuffle → reduce tasks, with a thread pool
  per phase, deterministic output, and optional fault injection with
  task re-execution (the feature that made MapReduce famous).
- :mod:`repro.mapreduce.jobs` — the canonical computations: word count,
  distributed grep, inverted index, URL access count, per-key mean.
"""

from repro.mapreduce.counters import CounterSet, TaskCounters, run_with_counters
from repro.mapreduce.engine import (
    JobResult,
    MapReduceEngine,
    MapReduceSpec,
    TaskFailure,
)
from repro.mapreduce.jobs import (
    distributed_sort_job,
    grep_job,
    inverted_index_job,
    make_range_partitioner,
    mean_by_key_job,
    url_access_count_job,
    word_count_job,
)

__all__ = [
    "CounterSet",
    "JobResult",
    "MapReduceEngine",
    "MapReduceSpec",
    "TaskCounters",
    "TaskFailure",
    "distributed_sort_job",
    "grep_job",
    "inverted_index_job",
    "make_range_partitioner",
    "mean_by_key_job",
    "url_access_count_job",
    "run_with_counters",
    "word_count_job",
]
