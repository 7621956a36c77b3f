"""Dispatch order as a stored key, leased in SQL; completions per batch.

Pins what lets the drain stop re-reading the pending set: the order
:meth:`JobStore.lease` applies in SQL is exactly
:meth:`RankingPolicy.rank`, a completion batch commits or rolls back as
one transaction, and a store file written before ``rank_key`` existed
still resumes to the same artifact.
"""

from __future__ import annotations

import json
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.faults.injector import InjectedCrash
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.pipeline.rank import RankingPolicy, RankWeights, StoreScheduler
from repro.pipeline.store import JobStore
from repro.pipeline.workloads import run_pipeline_workload
from repro.sched.executor import WorkStealingExecutor

#: Few distinct values, so equal scores, equal ages and equal whole keys
#: (exploration off) all occur.
_jobs = st.lists(
    st.tuples(st.sampled_from([0.0, 1.0, 2.5]),
              st.sampled_from([0.0, 50.0, 100.0]),
              st.text(alphabet="abc", min_size=1, max_size=3)),
    min_size=1, max_size=24, unique_by=lambda job: job[2],
)


@settings(max_examples=60, deadline=None)
@given(jobs=_jobs,
       weights=st.builds(RankWeights,
                         expected_score=st.sampled_from([0.0, 1.0]),
                         staleness_per_s=st.sampled_from([0.0, 0.02, 0.1]),
                         exploration=st.sampled_from([0.0, 0.5])),
       seed=st.integers(0, 3),
       batch=st.integers(1, 7))
def test_lease_order_over_batches_equals_rank(jobs, weights, seed, batch):
    policy = RankingPolicy(seed=seed, weights=weights)
    now = [0.0]
    with JobStore(":memory:", clock=lambda: now[0]) as store:
        records = []
        for created_s in sorted({created for _score, created, _key in jobs}):
            now[0] = created_s
            records += [record for record, _created in store.enqueue_batch(
                [{"run_id": "r", "stage": "s", "key": key,
                  "payload": {"key": key}, "expected_score": score}
                 for score, created, key in jobs if created == created_s],
                rank_key=policy.rank_key)]
        leased = []
        while claimed := store.lease("w", run_id="r", stage="s", limit=batch):
            assert len(claimed) <= batch
            leased += claimed
    assert [job.key for job in leased] == \
        [job.key for job in policy.rank(records)]


def test_stored_key_is_the_policys(tmp_path):
    policy = RankingPolicy(seed=5)
    with JobStore(str(tmp_path / "keys.db"), clock=lambda: 40.0) as store:
        (record, created), = store.enqueue_batch(
            [{"run_id": "r", "stage": "s", "payload": 1,
              "expected_score": 3.0}], rank_key=policy.rank_key)
    assert created
    assert record.rank_key == policy.rank_key(record.key, 3.0, 40.0)


def test_lease_by_ids_keeps_the_given_order(tmp_path):
    with JobStore(str(tmp_path / "ids.db")) as store:
        ids = [record.job_id for record, _ in store.enqueue_batch(
            [{"payload": i} for i in range(5)])]
        wanted = [ids[3], ids[0], ids[3], ids[4]]
        assert [job.job_id for job in store.lease("w", wanted)] == \
            [ids[3], ids[0], ids[4]]
        assert store.lease("v", wanted) == []           # already leased


def test_enqueue_batch_marks_repeats_within_a_batch_as_existing(tmp_path):
    with JobStore(str(tmp_path / "dup.db")) as store:
        out = store.enqueue_batch([{"payload": 1}, {"payload": 2},
                                   {"payload": 1}])
        assert [created for _record, created in out] == [True, True, False]
        assert out[0][0] == out[2][0]
        again = store.enqueue_batch([{"payload": 2}, {"payload": 3}])
        assert [created for _record, created in again] == [False, True]


# -- the drain ----------------------------------------------------------------


def test_drain_never_reads_the_pending_set_or_ranks_in_python(
        tmp_path, monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the drain must lease its batch in SQL")

    monkeypatch.setattr(JobStore, "pending_jobs", forbidden)
    monkeypatch.setattr(RankingPolicy, "rank", forbidden)
    with JobStore(str(tmp_path / "drain.db")) as store:
        run = run_pipeline_workload("drugdesign", store, workers=2, seed=7,
                                    resume=False, params={"ligands": 200})
    assert run.stats["rounds"] == 2                      # 50 jobs, 32 a batch
    assert run.stats["completed"] == 50


def _leased_batch(store, n=5):
    store.enqueue_batch([{"run_id": "r", "stage": "s",
                          "payload": {"index": i, "item": i}}
                         for i in range(n)])
    return store.lease("w", run_id="r", stage="s")


def test_complete_many_rolls_back_the_whole_batch_on_a_crash(tmp_path):
    path = str(tmp_path / "atomic.db")
    plan = FaultPlan(rules=(
        FaultRule("pipeline.store", FaultKind.CRASH, at=(2,),
                  where={"op": "complete"}),
    ))
    with JobStore(path) as store:
        batch = _leased_batch(store)
        with faults.inject(plan) as injector:
            with pytest.raises(InjectedCrash):
                store.complete_many([(job.job_id, job.payload["item"] * 10)
                                     for job in batch])
        assert injector.log_lines() == ["pipeline.store|complete|2|crash|r0"]
        assert store.counts(run_id="r") == {"leased": 5}
        assert all(job.result is None for job in store.jobs(run_id="r"))
    # Resume: a restarted worker under the same owner re-arms its own
    # leases and runs the whole batch again.
    with JobStore(path) as store:
        stats = StoreScheduler(store, owner="w").drain(
            WorkStealingExecutor(n_workers=2, seed=0, deterministic=True),
            lambda job: job.payload["item"] * 10, run_id="r", stage="s")
        assert stats["reclaimed"] == 5 and stats["completed"] == 5
        assert [job.result for job in store.jobs(run_id="r")] == \
            [0, 10, 20, 30, 40]


def test_complete_many_is_all_or_nothing_on_an_illegal_transition(tmp_path):
    with JobStore(str(tmp_path / "illegal.db")) as store:
        batch = _leased_batch(store, n=3)
        store.complete(batch[1].job_id, "first")
        with pytest.raises(Exception, match="illegal transition"):
            store.complete_many([(job.job_id, "again") for job in batch])
        assert store.counts(run_id="r") == {"done": 1, "leased": 2}


def test_drain_waits_on_a_count_of_other_workers_leases(tmp_path):
    with JobStore(str(tmp_path / "wait.db"), lease_s=0.2) as store:
        (held,) = _leased_batch(store, n=1)
        scheduler = StoreScheduler(store, owner="late", wait_s=0.05,
                                   lease_s=0.2)
        stats = scheduler.drain(
            WorkStealingExecutor(n_workers=1, seed=0, deterministic=True),
            lambda job: "done", run_id="r", stage="s")
    assert stats["waits"] >= 1                # waited for the live lease
    assert stats["reclaimed"] == 1 and stats["completed"] == 1


# -- a file written before rank_key existed -----------------------------------


def _to_parent_schema(path: str) -> None:
    """Rewrite a store file into the schema before ``rank_key``."""
    conn = sqlite3.connect(path, isolation_level=None)
    try:
        conn.executescript(
            "DROP INDEX jobs_by_rank;"
            "ALTER TABLE jobs DROP COLUMN rank_key;"
            "CREATE INDEX jobs_by_state ON jobs(state, run_id, stage);")
        columns = [row[1] for row in conn.execute("PRAGMA table_info(jobs)")]
    finally:
        conn.close()
    assert "rank_key" not in columns


def test_parent_schema_file_opens_and_resumes_byte_identical(tmp_path):
    params = {"ligands": 200}
    with JobStore(str(tmp_path / "reference.db")) as store:
        reference = run_pipeline_workload("drugdesign", store, workers=2,
                                          seed=7, resume=False, params=params)
    path = str(tmp_path / "old.db")
    crash_in_second_batch = FaultPlan(rules=(
        FaultRule("pipeline.store", FaultKind.CRASH, at=(40,),
                  where={"op": "complete"}),
    ))
    with JobStore(path) as store, faults.inject(crash_in_second_batch):
        with pytest.raises(InjectedCrash):
            run_pipeline_workload("drugdesign", store, workers=2, seed=7,
                                  params=params)
    _to_parent_schema(path)

    with JobStore(path) as store:
        assert store.counts() == {"done": 32, "leased": 18}
        assert {job.rank_key for job in store.jobs()} == {None}
        resumed = run_pipeline_workload("drugdesign", store, workers=2,
                                        seed=7, params=params)
        scored = store.jobs(stage="score")
    assert json.dumps(resumed.output, sort_keys=True) == \
        json.dumps(reference.output, sort_keys=True)
    assert [name for name, _status in resumed.stage_status] == \
        ["generate", "score", "rank", "report"]
    policy = RankingPolicy(seed=7)
    # Re-enqueue gave every NULL-keyed row its key, from its own row.
    assert [job.rank_key for job in scored] == [
        policy.rank_key(job.key, job.expected_score, job.created_s)
        for job in scored]
