"""OMP environment parsing; distributed sort over the MapReduce engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import MapReduceEngine, distributed_sort_job, make_range_partitioner
from repro.openmp.env import OMPEnvironment, WallClock, parse_schedule
from repro.openmp.loops import ScheduleKind


class TestOMPEnvironment:
    def test_defaults(self):
        env = OMPEnvironment.from_mapping({})
        assert env.num_threads == 4
        assert env.schedule.kind is ScheduleKind.STATIC

    def test_full_parse(self):
        env = OMPEnvironment.from_mapping({
            "OMP_NUM_THREADS": "8",
            "OMP_SCHEDULE": "dynamic,2",
            "OMP_DYNAMIC": "true",
            "OMP_NESTED": "0",
        })
        assert env.num_threads == 8
        assert env.schedule.kind is ScheduleKind.DYNAMIC
        assert env.schedule.chunk == 2
        assert env.dynamic_adjustment is True
        assert env.nested is False
        assert env.runtime().num_threads == 8

    @pytest.mark.parametrize("text,kind,chunk", [
        ("static", ScheduleKind.STATIC, None),
        ("static,3", ScheduleKind.STATIC, 3),
        ("dynamic", ScheduleKind.DYNAMIC, 1),
        ("DYNAMIC, 4", ScheduleKind.DYNAMIC, 4),
        ("guided,2", ScheduleKind.GUIDED, 2),
    ])
    def test_schedule_parse(self, text, kind, chunk):
        schedule = parse_schedule(text)
        assert schedule.kind is kind
        assert schedule.chunk == chunk

    @pytest.mark.parametrize("bad", ["", "mystery", "static,0", "static,x", "a,b,c"])
    def test_schedule_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_schedule(bad)

    def test_unknown_omp_variable_rejected(self):
        with pytest.raises(ValueError, match="unrecognised"):
            OMPEnvironment.from_mapping({"OMP_NUM_THREDS": "4"})

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            OMPEnvironment.from_mapping({"OMP_NUM_THREADS": "four"})
        with pytest.raises(ValueError):
            OMPEnvironment.from_mapping({"OMP_DYNAMIC": "maybe"})
        with pytest.raises(ValueError):
            OMPEnvironment(num_threads=0)

    def test_wall_clock(self):
        t = [10.0]
        clock = WallClock(source=lambda: t[0])
        assert clock.wtime() == 0.0
        t[0] = 12.5
        assert clock.wtime() == 2.5
        start = clock.wtime()
        t[0] = 13.0
        assert clock.elapsed(start) == pytest.approx(0.5)


class TestDistributedSort:
    def test_range_partitioner(self):
        partition = make_range_partitioner([10.0, 20.0])
        assert partition(5.0) == 0
        assert partition(10.0) == 1    # bisect_right: boundary goes up
        assert partition(15.0) == 1
        assert partition(99.0) == 2

    def test_global_sort_via_bucket_concatenation(self):
        rng = random.Random(3)
        values = [rng.uniform(0, 100) for _ in range(400)]
        job = distributed_sort_job(boundaries=[25.0, 50.0, 75.0])
        result = MapReduceEngine(4).run(job, list(enumerate(values)))
        flat = [
            key
            for bucket in result.per_reduce_outputs
            for key, count in bucket
            for _ in range(count)
        ]
        assert flat == sorted(values)

    def test_duplicates_preserved(self):
        values = [5.0, 1.0, 5.0, 3.0, 5.0]
        job = distributed_sort_job(boundaries=[2.0, 4.0])
        result = MapReduceEngine(2).run(job, list(enumerate(values)))
        flat = [
            k for bucket in result.per_reduce_outputs
            for k, c in bucket for _ in range(c)
        ]
        assert flat == [1.0, 3.0, 5.0, 5.0, 5.0]

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_sort_property(self, values):
        job = distributed_sort_job(boundaries=[-50.0, 0.0, 50.0])
        result = MapReduceEngine(4).run(job, list(enumerate(values)))
        flat = [
            k for bucket in result.per_reduce_outputs
            for k, c in bucket for _ in range(c)
        ]
        assert flat == sorted(values)

    def test_integer_keys_sorted_numerically(self):
        """Regression: keys 2 and 10 must sort numerically, not as repr."""
        job = distributed_sort_job(boundaries=[100.0])
        result = MapReduceEngine(2).run(job, [(0, 10), (1, 2)])
        assert [k for k, _c in result.output] == [2, 10]
