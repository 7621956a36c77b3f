"""A lease batch runs as one executor task per worker; cold enqueues and
completion batches skip their read-backs.

Pins what the cheaper path must not change: every job in a task keeps
its own outcome, retry and single commit; a cold batch's records equal
what the store holds; and the ``created`` flags of a mixed batch are
those of the read-back path.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import faults
from repro.faults.injector import InjectedCrash
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.pipeline.rank import StoreScheduler
from repro.pipeline.store import JobStore, TransitionError
from repro.sched.executor import WorkStealingExecutor


def _enqueue(store, n):
    return store.enqueue_batch([
        {"run_id": "r", "stage": "s", "payload": {"index": i, "item": i}}
        for i in range(n)])


def _executor(workers=2):
    return WorkStealingExecutor(n_workers=workers, seed=0, deterministic=True)


def _committed_ids(store, monkeypatch):
    """Every job id each ``complete_many`` call commits, in call order."""
    committed: list[int] = []
    complete_many = store.complete_many

    def spy(pairs):
        complete_many(pairs)
        committed.extend(job_id for job_id, _result in pairs)

    monkeypatch.setattr(store, "complete_many", spy)
    return committed


# -- chunked dispatch ---------------------------------------------------------


def test_each_lease_batch_is_one_task_per_worker(tmp_path):
    executor = _executor(workers=4)
    with JobStore(str(tmp_path / "tasks.db")) as store:
        _enqueue(store, 42)
        stats = StoreScheduler(store, owner="w", batch_size=32).drain(
            executor, lambda job: job.payload["item"], run_id="r", stage="s")
        assert store.counts(run_id="r") == {"done": 42}
    # 32 jobs as 4 tasks of 8, then 10 jobs as tasks of 3, 3, 3 and 1.
    assert stats["rounds"] == 2
    assert executor.stats().submitted == 8


def test_a_raising_handler_fails_only_its_own_job(tmp_path, monkeypatch):
    calls: Counter[int] = Counter()

    def handler(job):
        item = job.payload["item"]
        calls[item] += 1
        if item == 2:
            raise ValueError("bad ligand")
        return item * 10

    with JobStore(str(tmp_path / "raise.db")) as store:
        _enqueue(store, 6)
        committed = _committed_ids(store, monkeypatch)
        stats = StoreScheduler(store, owner="w", max_attempts=3).drain(
            _executor(), handler, run_id="r", stage="s")
        jobs = {job.payload["item"]: job for job in store.jobs(run_id="r")}
    assert (stats["completed"], stats["retried"], stats["failed"]) == (5, 2, 1)
    assert jobs[2].state == "failed" and jobs[2].attempts == 3
    assert "bad ligand" in jobs[2].error
    for item in (0, 1, 3, 4, 5):
        assert (jobs[item].state, jobs[item].result) == ("done", item * 10)
    # Its chunk-mates ran and committed once; only the bad job retried.
    assert calls == Counter({0: 1, 1: 1, 2: 3, 3: 1, 4: 1, 5: 1})
    assert sorted(committed) == sorted(
        jobs[item].job_id for item in (0, 1, 3, 4, 5))


def test_a_crashed_task_reruns_its_chunk_and_commits_once(tmp_path,
                                                          monkeypatch):
    plan = FaultPlan(rules=(
        FaultRule("sched.task", FaultKind.CRASH, at=(0,), max_fires=1),
    ))
    calls: Counter[int] = Counter()

    def handler(job):
        calls[job.payload["item"]] += 1
        return job.payload["item"]

    executor = _executor()
    with JobStore(str(tmp_path / "crash.db")) as store:
        _enqueue(store, 8)
        committed = _committed_ids(store, monkeypatch)
        with faults.inject(plan) as injector:
            stats = StoreScheduler(store, owner="w").drain(
                executor, handler, run_id="r", stage="s")
        assert store.counts(run_id="r") == {"done": 8}
        assert all(job.attempts == 1 for job in store.jobs(run_id="r"))
    assert len(injector.log_lines()) == 1
    assert executor.stats().retries == 1
    assert stats["completed"] == 8 and stats["retried"] == 0
    assert calls == Counter({item: 1 for item in range(8)})
    assert sorted(Counter(committed).values()) == [1] * 8


def test_a_crash_inside_a_handler_reruns_the_chunk_mates(tmp_path,
                                                         monkeypatch):
    calls: Counter[int] = Counter()

    def handler(job):
        item = job.payload["item"]
        calls[item] += 1
        if calls[item] == 1 and item == 5:
            raise InjectedCrash("worker died mid-chunk")
        return item

    with JobStore(str(tmp_path / "mid.db")) as store:
        _enqueue(store, 8)
        committed = _committed_ids(store, monkeypatch)
        stats = StoreScheduler(store, owner="w").drain(
            _executor(), handler, run_id="r", stage="s")
        assert store.counts(run_id="r") == {"done": 8}
    assert stats["completed"] == 8
    # The crashed job and the chunk-mates run before it ran twice; every
    # job still committed exactly once.
    assert calls[5] == 2 and sum(calls.values()) > 8
    assert sorted(Counter(committed).values()) == [1] * 8


# -- the cold-enqueue fast path -----------------------------------------------


@pytest.mark.parametrize("clear_first", [False, True])
def test_a_cold_batch_returns_exactly_the_stored_rows(tmp_path, clear_first):
    payloads = [{"index": 0, "item": ("ligand", 3)}, (1, 2), "plain", None,
                [1.5, {"z": 1, "a": [True]}]]
    with JobStore(str(tmp_path / "cold.db"), clock=lambda: 12.5) as store:
        if clear_first:
            # Deleted rows leave AUTOINCREMENT above MAX(id): the new
            # ids must follow the sequence, not the table.
            _enqueue(store, 3)
            store.enqueue_batch([{"run_id": "gone", "payload": i}
                                 for i in range(4)])
            store.clear_run("gone")
        out = store.enqueue_batch(
            [{"run_id": "r", "stage": "s", "payload": payload,
              "expected_score": float(i)}
             for i, payload in enumerate(payloads)],
            rank_key=lambda key, score, created: score - created)
        assert [created for _record, created in out] == [True] * 5
        for record, _created in out:
            assert record == store.get_by_key(record.key)
            assert record == store.get(record.job_id)
    assert out[1][0].payload == [1, 2]          # a tuple comes back a list
    assert out[0][0].payload["item"] == ["ligand", 3]


def test_a_mixed_batch_keeps_the_created_flags(tmp_path):
    with JobStore(str(tmp_path / "mixed.db")) as store:
        (first, created), = store.enqueue_batch([{"payload": 1}])
        assert created
        store.lease("w", [first.job_id])
        store.complete(first.job_id, {"score": 7})
        out = store.enqueue_batch([{"payload": 2}, {"payload": 1},
                                   {"payload": 3}, {"payload": 2}])
        assert [created for _record, created in out] == \
            [True, False, True, False]
        assert out[1][0].state == "done"
        assert out[1][0].result == {"score": 7}
        assert out[0][0] == out[3][0]
        for record, _created in out:
            assert record == store.get_by_key(record.key)


# -- the completion batch -----------------------------------------------------


def test_complete_many_names_the_first_offending_job(tmp_path):
    with JobStore(str(tmp_path / "offender.db")) as store:
        _enqueue(store, 4)
        batch = store.lease("w", run_id="r", stage="s")
        store.complete(batch[2].job_id, "early")
        pairs = [(job.job_id, "late") for job in batch]
        with pytest.raises(TransitionError,
                           match=rf"job {batch[2].job_id}: illegal transition "
                                 r"'done' -> 'done'"):
            store.complete_many(pairs)
        with pytest.raises(TransitionError,
                           match=rf"job {batch[0].job_id}: illegal"):
            store.complete_many([pairs[0], pairs[1], pairs[0]])
        with pytest.raises(KeyError):
            store.complete_many([pairs[0], (10_000, "ghost")])
        assert store.counts(run_id="r") == {"done": 1, "leased": 3}
        assert [store.get(job.job_id).result for job in batch] == \
            [None, None, "early", None]


def test_complete_many_fires_its_fault_site_once_per_row(tmp_path):
    plan = FaultPlan(rules=(
        FaultRule("pipeline.store", FaultKind.STALL, every=1,
                  where={"op": "complete"}),
    ))
    with JobStore(str(tmp_path / "fires.db")) as store:
        _enqueue(store, 5)
        batch = store.lease("w", run_id="r", stage="s")
        with faults.inject(plan) as injector:
            store.complete_many([(job.job_id, 1) for job in batch])
        assert store.counts(run_id="r") == {"done": 5}
    assert injector.log_lines() == [
        f"pipeline.store|complete|{i}|stall|r0" for i in range(5)]
