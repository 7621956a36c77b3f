"""MapReduce engine: semantics, determinism, fault tolerance, jobs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import (
    MapReduceEngine,
    MapReduceSpec,
    TaskFailure,
    grep_job,
    inverted_index_job,
    mean_by_key_job,
    url_access_count_job,
    word_count_job,
)
from repro.mapreduce.jobs import tokenize

DOCS = [
    ("d1", "the cat sat on the mat"),
    ("d2", "the dog ate the cat's dinner"),
    ("d3", "mat and cat and dog"),
    ("d4", ""),
]


def engine(**kwargs):
    return MapReduceEngine(n_workers=4, **kwargs)


class TestEngineSemantics:
    def test_word_count_matches_sequential(self):
        eng = engine()
        parallel = eng.run(word_count_job(), DOCS)
        sequential = eng.run_sequential(word_count_job(), DOCS)
        assert parallel.output == sequential.output

    def test_word_count_values(self):
        counts = engine().run(word_count_job(), DOCS).as_dict()
        assert counts["the"] == 4
        assert counts["cat"] == 2
        assert counts["mat"] == 2

    def test_output_sorted_by_key(self):
        output = engine().run(word_count_job(), DOCS).output
        keys = [repr(k) for k, _ in output]
        assert keys == sorted(keys)

    def test_deterministic_across_runs_and_worker_counts(self):
        a = MapReduceEngine(n_workers=1).run(word_count_job(), DOCS)
        b = MapReduceEngine(n_workers=8).run(word_count_job(), DOCS)
        assert a.output == b.output

    def test_n_map_tasks_override(self):
        result = engine().run(word_count_job(), DOCS, n_map_tasks=2)
        assert result.n_map_tasks == 2

    def test_empty_input(self):
        result = engine().run(word_count_job(), [])
        assert result.output == ()

    def test_combiner_reduces_intermediate_volume(self):
        with_combiner = engine().run(word_count_job(), DOCS, n_map_tasks=1)
        no_combiner = MapReduceSpec(
            name="wc_nocomb",
            mapper=word_count_job().mapper,
            reducer=word_count_job().reducer,
        )
        without = engine().run(no_combiner, DOCS, n_map_tasks=1)
        assert with_combiner.intermediate_pairs < without.intermediate_pairs
        assert with_combiner.as_dict() == without.as_dict()

    def test_combiner_cuts_shuffle_tenfold_on_a_repetitive_corpus(self):
        rng = random.Random(9)
        words = ("map", "reduce", "shard", "worker", "key", "value",
                 "shuffle", "sort")
        corpus = [(f"doc{i:04d}", " ".join(rng.choice(words) for _ in range(40)))
                  for i in range(200)]
        no_combiner = MapReduceSpec(
            name="wc_nocomb",
            mapper=word_count_job().mapper,
            reducer=word_count_job().reducer,
        )
        with_combiner = engine().run(word_count_job(), corpus, n_map_tasks=8)
        without = engine().run(no_combiner, corpus, n_map_tasks=8)
        assert with_combiner.intermediate_pairs < without.intermediate_pairs / 10
        assert sum(with_combiner.as_dict().values()) == 200 * 40

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MapReduceSpec("bad", lambda k, v: [], lambda k, vs: None, n_reduce_tasks=0)
        with pytest.raises(ValueError):
            MapReduceEngine(n_workers=0)

    @given(st.lists(st.text(alphabet="abc d", max_size=30), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_parallel_equals_sequential_property(self, texts):
        records = [(i, t) for i, t in enumerate(texts)]
        eng = engine()
        assert (
            eng.run(word_count_job(), records).output
            == eng.run_sequential(word_count_job(), records).output
        )


class TestFaultTolerance:
    def test_map_failure_retried_transparently(self):
        clean = engine().run(word_count_job(), DOCS)
        faulty = MapReduceEngine(
            n_workers=4, failures=[TaskFailure("map", 0, 0)]
        ).run(word_count_job(), DOCS)
        assert faulty.output == clean.output
        assert faulty.retries == 1

    def test_reduce_failure_retried(self):
        clean = engine().run(word_count_job(), DOCS)
        faulty = MapReduceEngine(
            n_workers=4, failures=[TaskFailure("reduce", 2, 0)]
        ).run(word_count_job(), DOCS)
        assert faulty.output == clean.output

    def test_failures_everywhere_still_correct(self):
        """Kill the first attempt of every task; re-execution must recover."""
        failures = [TaskFailure("map", i, 0) for i in range(8)]
        failures += [TaskFailure("reduce", r, 0) for r in range(4)]
        clean = engine().run(word_count_job(), DOCS)
        faulty = MapReduceEngine(n_workers=4, failures=failures).run(
            word_count_job(), DOCS
        )
        assert faulty.output == clean.output

    def test_persistent_failure_exhausts_attempts(self):
        failures = [TaskFailure("map", 0, attempt) for attempt in range(3)]
        eng = MapReduceEngine(n_workers=2, max_attempts=3, failures=failures)
        with pytest.raises(RuntimeError, match="failed after 3 attempts"):
            eng.run(word_count_job(), DOCS)

    def test_failure_validation(self):
        with pytest.raises(ValueError):
            TaskFailure("shuffle", 0)
        with pytest.raises(ValueError):
            TaskFailure("map", -1)


class TestJobs:
    def test_tokenize(self):
        assert tokenize("Hello, World! it's me") == ["hello", "world", "it's", "me"]

    def test_grep(self):
        lines = [(i, line) for i, line in enumerate(
            ["error: disk full", "all good", "another ERROR here", "fine"]
        )]
        result = engine().run(grep_job(r"error"), lines)
        assert dict(result.output) == {0: "error: disk full"}

    def test_grep_regex(self):
        lines = [(0, "abc123"), (1, "nope")]
        result = engine().run(grep_job(r"\d+"), lines)
        assert dict(result.output) == {0: "abc123"}

    def test_inverted_index(self):
        index = engine().run(inverted_index_job(), DOCS).as_dict()
        assert index["cat"] == ("d1", "d3")   # d2 has "cat's" -> token "cat's"
        assert index["dog"] == ("d2", "d3")

    def test_inverted_index_dedups_within_doc(self):
        index = engine().run(inverted_index_job(), [("d1", "a a a")]).as_dict()
        assert index["a"] == ("d1",)

    def test_url_access_count(self):
        logs = [(i, line) for i, line in enumerate([
            "1.2.3.4 /index.html 200",
            "4.3.2.1 /index.html 200",
            "1.2.3.4 /about 404",
            "malformed",
        ])]
        counts = engine().run(url_access_count_job(), logs).as_dict()
        assert counts == {"/index.html": 2, "/about": 1}

    def test_mean_by_key_correct_under_combining(self):
        records = [("a", 1), ("a", 2), ("a", 3), ("b", 10), ("b", 20)]
        # Force many map tasks so the combiner runs on partial groups —
        # the case where a naive mean-of-means would be wrong.
        result = engine().run(mean_by_key_job(), records, n_map_tasks=5)
        assert result.as_dict() == {"a": 2.0, "b": 15.0}

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 100)),
                    min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_mean_by_key_property(self, records):
        result = engine().run(mean_by_key_job(), records, n_map_tasks=3)
        for key, value in result.output:
            values = [v for k, v in records if k == key]
            assert value == pytest.approx(sum(values) / len(values))
