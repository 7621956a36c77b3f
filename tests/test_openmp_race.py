"""The data-race detector: soundness on seeded races, silence on safe code."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.openmp import OpenMP, RaceDetector, RaceError, Shared
from repro.openmp.race import Access, Race


class TestDetection:
    def test_unsynchronised_rmw_detected(self):
        detector = RaceDetector()
        x = Shared(0, "x", detector)

        def body(ctx):
            for _ in range(20):
                x.write(x.read(ctx) + 1, ctx)

        OpenMP(4).parallel(body)
        assert detector.has_race()
        races = detector.races(limit=10)
        assert len(races) == 10
        assert all(r.first.variable == "x" for r in races)

    def test_write_write_race_detected(self):
        detector = RaceDetector()
        x = Shared(0, "x", detector)
        OpenMP(2).parallel(lambda ctx: x.write(ctx.thread_num, ctx))
        assert detector.has_race()

    def test_read_only_sharing_is_safe(self):
        detector = RaceDetector()
        x = Shared(42, "x", detector)
        OpenMP(4).parallel(lambda ctx: x.read(ctx))
        assert not detector.has_race()

    def test_single_thread_never_races(self):
        detector = RaceDetector()
        x = Shared(0, "x", detector)

        def body(ctx):
            for _ in range(50):
                x.write(x.read(ctx) + 1, ctx)

        OpenMP(1).parallel(body)
        assert not detector.has_race()

    def test_common_lock_suppresses_race(self):
        detector = RaceDetector()
        x = Shared(0, "x", detector)

        def body(ctx):
            with ctx.critical("guard"):
                with detector.holding(ctx, "guard"):
                    x.write(x.read(ctx) + 1, ctx)

        OpenMP(4).parallel(body)
        assert not detector.has_race()

    def test_different_locks_still_race(self):
        detector = RaceDetector()
        x = Shared(0, "x", detector)

        def body(ctx):
            name = f"lock-{ctx.thread_num}"   # disjoint locks: no protection
            with ctx.critical(name):
                with detector.holding(ctx, name):
                    x.write(x.read(ctx) + 1, ctx)

        OpenMP(4).parallel(body)
        assert detector.has_race()

    def test_epoch_separation_suppresses_race(self):
        """Accesses separated by a barrier (epoch advance) do not race."""
        detector = RaceDetector()
        x = Shared(0, "x", detector)

        def body(ctx):
            if ctx.thread_num == 0:
                x.write(1, ctx)
            ctx.barrier()
            ctx.single(lambda: detector.advance_epoch())
            if ctx.thread_num == 1:
                x.write(2, ctx)

        OpenMP(2).parallel(body)
        assert not detector.has_race()

    def test_distinct_variables_do_not_interfere(self):
        detector = RaceDetector()
        a = Shared(0, "a", detector)
        b = Shared(0, "b", detector)

        def body(ctx):
            if ctx.thread_num == 0:
                a.write(1, ctx)
            else:
                b.write(1, ctx)

        OpenMP(2).parallel(body)
        assert not detector.has_race()


class TestReporting:
    def test_check_raises_race_error(self):
        detector = RaceDetector()
        x = Shared(0, "x", detector)
        OpenMP(2).parallel(lambda ctx: x.write(1, ctx))
        with pytest.raises(RaceError) as excinfo:
            detector.check()
        assert "data race" in str(excinfo.value)

    def test_race_str_names_threads(self):
        detector = RaceDetector()
        x = Shared(0, "hot", detector)
        OpenMP(2).parallel(lambda ctx: x.write(1, ctx))
        text = str(detector.races(limit=1)[0])
        assert "'hot'" in text and "threads" in text

    def test_reset_clears_state(self):
        detector = RaceDetector()
        x = Shared(0, "x", detector)
        OpenMP(2).parallel(lambda ctx: x.write(1, ctx))
        detector.reset()
        assert not detector.has_race()

    def test_limit_bounds_enumeration(self):
        detector = RaceDetector()
        x = Shared(0, "x", detector)

        def body(ctx):
            for _ in range(100):
                x.write(x.read(ctx) + 1, ctx)

        OpenMP(4).parallel(body)
        assert len(detector.races(limit=5)) == 5

    def test_shared_value_peek(self):
        detector = RaceDetector()
        x = Shared(7, "x", detector)
        assert x.value == 7


def _reference_conflicts(accesses, limit):
    """Quadratic oracle: every pair within a (variable, epoch) group, in order."""
    found = []
    by_key = {}
    for access in accesses:
        by_key.setdefault((access.variable, access.epoch), []).append(access)
    for group in by_key.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                if a.thread_num == b.thread_num:
                    continue
                if not (a.is_write or b.is_write):
                    continue
                if a.locks & b.locks:
                    continue
                found.append(Race(a, b))
                if limit is not None and len(found) >= limit:
                    return found
    return found


_accesses = st.lists(
    st.builds(
        Access,
        variable=st.sampled_from(["x", "y"]),
        thread_num=st.integers(0, 3),
        epoch=st.integers(0, 1),
        is_write=st.booleans(),
        locks=st.sampled_from(
            [frozenset(), frozenset(), frozenset({"a"}), frozenset({"b"}),
             frozenset({"a", "b"})]
        ),
    ),
    max_size=120,
)


class TestEnumerationOracle:
    @settings(max_examples=200, deadline=None)
    @given(accesses=_accesses, k=st.integers(2, 60))
    def test_matches_quadratic_reference(self, accesses, k):
        for limit in (None, 1, k):
            got = RaceDetector._find_conflicts(accesses, limit)
            assert got == _reference_conflicts(accesses, limit)

    def test_critical_section_log_has_no_races(self):
        log = [
            Access("c", thread, 0, is_write, frozenset({"update"}))
            for _ in range(400) for thread in range(4) for is_write in (False, True)
        ]
        assert RaceDetector._find_conflicts(log, None) == []
