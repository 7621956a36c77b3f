"""Tests of the benchmark's own rules.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import loadgen  # noqa: E402
from repro.telemetry.spans import Span, SpanNode  # noqa: E402


# -- the tail-percentile rule -------------------------------------------------


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    values = list(range(1, 201))                   # 200 samples
    pct, value, n = layers.tail_percentile(reversed(values))
    # p99 leaves 2 samples beyond it; p95 (rank 190) leaves exactly 10.
    assert (pct, value, n) == (95.0, 190, 200)


def test_tail_needs_ten_samples_beyond_even_the_median():
    assert layers.tail_percentile(range(19)) is None    # 9 beyond the median
    assert layers.tail_percentile(range(20)) == (50.0, 9, 20)
    assert layers.tail_percentile([]) is None


def test_tail_moves_up_the_ladder_with_more_samples():
    assert layers.tail_percentile(range(1000))[0] == 99.0
    assert layers.tail_percentile(range(10_000))[0] == 99.9


# -- due-time latency in the open loop ----------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_latency_counts_from_due_time_through_a_stall():
    clock = FakeClock()
    requests = [loadgen.Request(i, due, {}) for i, due in
                enumerate((0.0, 0.010, 0.020, 0.500))]

    def send(request: loadgen.Request) -> None:
        # The first send stalls the sender for 100 ms; every job then
        # finishes 1 ms after it was sent.
        clock.now += 0.100 if request.index == 0 else 0.0
        request.state = "done"
        request.finished_s = clock.now + 0.001

    loadgen.run_open_loop(requests, 100.0, send, clock=clock, sleep=clock.sleep)

    assert [r.due_wall for r in requests] == [100.0, 100.010, 100.020, 100.500]
    late_ms = [round(r.late_s * 1e3, 6) for r in requests]
    assert late_ms == [0.0, 90.0, 80.0, 0.0]
    latency_ms = [round(r.latency_s * 1e3, 6) for r in requests]
    # Requests due during the stall carry it; the one due after does not.
    assert latency_ms == [101.0, 91.0, 81.0, 1.0]


def test_schedule_is_a_pure_function_of_the_seed():
    def specs(seed):
        return [(r.due_s, r.spec, r.repeat_of)
                for r in loadgen.make_schedule(random.Random(seed), 30.0, 5.0)]

    first = specs(7)
    assert first == specs(7) and first != specs(8)
    assert len(first) == 150
    dues = [due for due, _spec, _rep in first]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 5.0
    for _due, spec, repeat_of in first:
        if repeat_of is not None:
            assert first[repeat_of][1] == spec and first[repeat_of][2] is None


# -- self time on a synthetic span tree ---------------------------------------


def node(span_id, name, start, end, *children):
    return SpanNode(Span(span_id, None, name, "test", start, end), list(children))


def test_self_time_subtracts_the_union_of_child_spans():
    tree = node(1, "root", 0, 100,
                node(2, "a", 10, 40, node(3, "leaf", 20, 30)),
                node(4, "b", 35, 60),        # overlaps a: counted once in root
                node(5, "late", 90, 120))    # runs past its parent: clipped
    got = {name: self_us for name, self_us, _ in layers.self_times([tree])}
    assert got == {"root": 100 - (50 + 10), "a": 20, "leaf": 10, "b": 25,
                   "late": 30}


def test_self_times_of_a_nested_tree_sum_to_its_wall_time():
    tree = node(1, "op", 0, 1000,
                node(2, "x", 100, 400, node(3, "y", 150, 350)),
                node(4, "z", 500, 900))
    assert sum(s for _, s, _ in layers.self_times([tree])) == 1000


# -- wrappers are installed on the looked-up attribute and restored ----------


class Store:
    def read(self, n):
        return list(range(n))

    @classmethod
    def make(cls):
        return cls()


def test_patched_wraps_then_restores_instance_class_and_module_attributes():
    import json as module

    recorder = layers.Recorder()
    store = Store()
    seen = []
    original_dumps = module.dumps
    targets = [
        (store, "read", "store.read", lambda span, result, args: seen.append(len(result))),
        (Store, "make", "store.make"),
        (module, "dumps", "json.dumps"),
    ]
    with recorder.patched(targets):
        with recorder.span("op"):
            assert store.read(3) == [0, 1, 2]
            assert isinstance(Store.make(), Store)
            module.dumps({})
    assert seen == [3]
    assert "read" not in vars(store)
    assert isinstance(vars(Store)["make"], classmethod)
    assert module.dumps is original_dumps
    assert sorted(recorder.self_by_name("op")) == ["json.dumps", "op",
                                                  "store.make", "store.read"]
    assert abs(layers.accounted_ratio(recorder, "op") - 1.0) < 1e-9
