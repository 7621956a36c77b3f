"""The durable job store as a Hypothesis state machine.

Every rule drives one :class:`JobStore` operation on an on-disk file
and applies the same move to a plain-dict model; after every step the
store must equal the model.  The checks:

- every job is in exactly one state, and a job only ever moves along
  ``_TRANSITIONS``;
- an unfiltered or filtered ``lease`` claims exactly the top of
  :meth:`RankingPolicy.rank` over the model's pending jobs;
- ``counts()`` equals the model, overall and per run;
- a done job's result reads back as its JSON round-trip, and every
  other column (attempts, lease owner and expiry, error) as modelled;
- every armed callback is claimed exactly once, across reopens.

Lease expiry runs on an injected clock.  A crash rule fires the
``pipeline.store`` fault site inside one write, between its work and
COMMIT: the store must be unchanged and still equal the model after a
reopen.  Tier-1 runs a short search; the
``HYPOTHESIS_PROFILE`` profiles registered in ``tests/conftest.py`` run
it longer.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import faults
from repro.faults.injector import InjectedCrash
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.pipeline.rank import RankingPolicy, RankWeights
from repro.pipeline.store import (
    _TRANSITIONS,
    CANCELLED,
    DONE,
    FAILED,
    LEASED,
    PENDING,
    JobStore,
    TransitionError,
)

RUNS = ("r1", "r2")
STAGES = ("a", "b")
OWNERS = ("w1", "w2")
LEASE_S = 10.0

_runs = st.sampled_from(RUNS)
_stages = st.sampled_from(STAGES)
_scores = st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=1, max_size=4)
#: JSON-safe results, a tuple among them (it reads back as a list).
_results = st.one_of(
    st.integers(-3, 3),
    st.text(alphabet="xyz", max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
    st.tuples(st.integers(0, 3), st.booleans()),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=2),
)


def _json(value):
    return json.loads(json.dumps(value))


class JobStoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="jobstore-machine-")
        self.path = os.path.join(self.dir, "jobs.db")
        self.now = 1000.0
        self.store = self._open()
        self.model: dict[str, SimpleNamespace] = {}
        self.seen: dict[str, str] = {}
        self.armed: dict[str, list[dict]] = {}
        self.serial = 0

    def _open(self) -> JobStore:
        return JobStore(self.path, clock=lambda: self.now, lease_s=LEASE_S)

    def teardown(self) -> None:
        self.store.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- helpers -------------------------------------------------------------

    def _spec(self, run_id: str, stage: str, score: float) -> dict:
        self.serial += 1
        return {"run_id": run_id, "stage": stage,
                "payload": {"n": self.serial, "t": (run_id, self.serial)},
                "expected_score": score}

    def _enqueue(self, specs: list[dict]) -> None:
        """Enqueue ``specs``; check each record and ``created`` flag
        against the model, then admit the new keys to it."""
        out = self.store.enqueue_batch(specs, rank_key=self.policy.rank_key)
        assert len(out) == len(specs)
        for spec, (record, created) in zip(specs, out):
            job = self.model.get(record.key)
            assert created == (job is None)
            if job is None:
                job = self.model[record.key] = SimpleNamespace(
                    job_id=record.job_id, key=record.key,
                    run_id=spec["run_id"], stage=spec["stage"],
                    payload=_json(spec["payload"]),
                    expected_score=spec["expected_score"],
                    created_s=self.now,
                    rank_key=self.policy.rank_key(
                        record.key, spec["expected_score"], self.now),
                    state=PENDING, attempts=0, owner=None, expires=None,
                    result=None, error=None)
            self._check_record(record, job)

    def _check_record(self, record, job) -> None:
        assert (record.job_id, record.key, record.run_id, record.stage,
                record.payload, record.expected_score, record.created_s,
                record.rank_key, record.state, record.attempts,
                record.lease_owner, record.lease_expires_s, record.result,
                record.error) == \
            (job.job_id, job.key, job.run_id, job.stage, job.payload,
             job.expected_score, job.created_s, job.rank_key, job.state,
             job.attempts, job.owner, job.expires, job.result, job.error)

    def _in(self, *states: str) -> list[SimpleNamespace]:
        return sorted((job for job in self.model.values()
                       if job.state in states), key=lambda job: job.job_id)

    def _rearm(self, job: SimpleNamespace) -> None:
        job.state, job.owner, job.expires = PENDING, None, None

    @initialize(exploration=st.sampled_from([0.0, 0.5]))
    def choose_policy(self, exploration):
        # Without the exploration bonus, equal scores enqueued at one
        # instant tie on rank_key and the job key orders them.
        self.policy = RankingPolicy(
            seed=3, weights=RankWeights(exploration=exploration))

    # -- enqueue -------------------------------------------------------------

    @rule(run_id=_runs, stage=_stages, scores=_scores)
    def enqueue_new(self, run_id, stage, scores):
        self._enqueue([self._spec(run_id, stage, score) for score in scores])

    @rule(run_id=_runs, stage=_stages, scores=_scores)
    def enqueue_with_a_repeat(self, run_id, stage, scores):
        specs = [self._spec(run_id, stage, score) for score in scores]
        self._enqueue(specs + [dict(specs[0])])

    @precondition(lambda self: self.model)
    @rule(data=st.data(), score=st.sampled_from([0.0, 9.0]))
    def enqueue_existing(self, data, score):
        olds = data.draw(st.lists(st.sampled_from(sorted(self.model)),
                                  min_size=1, max_size=3))
        specs = [{"run_id": self.model[key].run_id,
                  "stage": self.model[key].stage,
                  "payload": self.model[key].payload,
                  "expected_score": score} for key in olds]
        self._enqueue(specs + [self._spec(RUNS[0], STAGES[0], score)])

    # -- lease ---------------------------------------------------------------

    @rule(owner=st.sampled_from(OWNERS),
          limit=st.one_of(st.none(), st.integers(1, 4)),
          run_id=st.one_of(st.none(), _runs),
          stage=st.one_of(st.none(), _stages))
    def lease(self, owner, limit, run_id, stage):
        pending = [job for job in self._in(PENDING)
                   if run_id in (None, job.run_id)
                   and stage in (None, job.stage)]
        expected = self.policy.rank(pending)[:limit]
        claimed = self.store.lease(owner, run_id=run_id, stage=stage,
                                   limit=limit)
        assert [record.key for record in claimed] == \
            [job.key for job in expected]
        for record, job in zip(claimed, expected):
            job.state, job.owner = LEASED, owner
            job.attempts += 1
            job.expires = self.now + LEASE_S
            self._check_record(record, job)

    @precondition(lambda self: self.model)
    @rule(owner=st.sampled_from(OWNERS), data=st.data())
    def renew_lease(self, owner, data):
        jobs = data.draw(st.lists(
            st.sampled_from(sorted(self.model.values(),
                                   key=lambda job: job.job_id)),
            min_size=1, max_size=4, unique_by=lambda job: job.key))
        held = [job for job in jobs
                if job.state == LEASED and job.owner == owner]
        assert self.store.renew_lease(owner, [job.job_id for job in jobs]) \
            == [job.job_id for job in held]
        for job in held:
            job.expires = self.now + LEASE_S

    # -- terminal moves ------------------------------------------------------

    @precondition(lambda self: self._in(LEASED))
    @rule(data=st.data(), illegal=st.booleans())
    def complete_many(self, data, illegal):
        jobs = data.draw(st.lists(st.sampled_from(self._in(LEASED)),
                                  min_size=1, max_size=4,
                                  unique_by=lambda job: job.key))
        results = [data.draw(_results) for _job in jobs]
        pairs = [(job.job_id, result) for job, result in zip(jobs, results)]
        others = self._in(PENDING, DONE, FAILED, CANCELLED)
        if illegal and others:
            bad = data.draw(st.sampled_from(others))
            pairs.insert(data.draw(st.integers(0, len(pairs))),
                         (bad.job_id, "illegal"))
            with pytest.raises(TransitionError,
                               match=rf"^job {bad.job_id}: illegal"):
                self.store.complete_many(pairs)
            return
        self.store.complete_many(pairs)
        for job, result in zip(jobs, results):
            job.state, job.result = DONE, _json(result)
            job.owner = job.expires = None

    @precondition(lambda self: self.model)
    @rule(data=st.data(), retry=st.booleans())
    def fail(self, data, retry):
        job = self.model[data.draw(st.sampled_from(sorted(self.model)))]
        if job.state != LEASED:
            with pytest.raises(TransitionError):
                self.store.fail(job.job_id, "boom", retry=retry)
            return
        record = self.store.fail(job.job_id, "boom", retry=retry)
        job.state = PENDING if retry else FAILED
        job.owner = job.expires = None
        job.error = "boom"
        self._check_record(record, job)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def cancel(self, data):
        job = self.model[data.draw(st.sampled_from(sorted(self.model)))]
        assert self.store.cancel(job.job_id) == (job.state == PENDING)
        if job.state == PENDING:
            job.state = CANCELLED

    # -- recovery ------------------------------------------------------------

    @rule(seconds=st.sampled_from([0.5, 5.0, LEASE_S]))
    def tick(self, seconds):
        self.now += seconds

    @rule()
    def reclaim_expired(self):
        expired = [job for job in self._in(LEASED) if job.expires < self.now]
        assert self.store.reclaim_expired() == [job.job_id for job in expired]
        for job in expired:
            self._rearm(job)

    @rule(owner=st.sampled_from(OWNERS))
    def release_owner(self, owner):
        held = [job for job in self._in(LEASED) if job.owner == owner]
        assert self.store.release_owner(owner) == [job.job_id for job in held]
        for job in held:
            self._rearm(job)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), op=st.sampled_from(["enqueue", "lease", "complete",
                                              "reclaim"]))
    def crash_mid_commit(self, data, op):
        """The write rolls back whole; a reopened store shows no trace."""
        leased = self._in(LEASED)
        writes = {
            "enqueue": lambda: self.store.enqueue_batch(
                [self._spec(RUNS[1], STAGES[1], 1.0)],
                rank_key=self.policy.rank_key),
            "lease": lambda: self.store.lease(OWNERS[0]),
            "complete": lambda: self.store.complete_many(
                [(job.job_id, "lost") for job in leased]),
            "reclaim": lambda: self.store.reclaim_expired(),
        }
        if op == "complete" and not leased:
            op = "enqueue"
        plan = FaultPlan(rules=(FaultRule(
            "pipeline.store", FaultKind.CRASH, where={"op": op},
            at=(data.draw(st.integers(0, max(0, len(leased) - 1)))
                if op == "complete" else 0,)),))
        with faults.inject(plan), pytest.raises(InjectedCrash):
            writes[op]()
        self.reopen()

    @rule(parent=st.sampled_from(["p1", "p2"]), tag=st.integers(0, 3))
    def add_callback(self, parent, tag):
        self.store.add_callback(parent, {"tag": tag})
        self.armed.setdefault(parent, []).append({"tag": tag})

    @rule(parent=st.sampled_from(["p1", "p2"]))
    def claim_callbacks(self, parent):
        assert self.store.claim_callbacks(parent) == \
            self.armed.pop(parent, [])

    @rule()
    def reopen(self):
        self.store.close()
        self.store = self._open()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def store_equals_model(self):
        """Every row as modelled, each in exactly one state, and every
        state change since the last step a legal move."""
        records = self.store.jobs()
        assert [record.key for record in records] == \
            [job.key for job in sorted(self.model.values(),
                                       key=lambda job: job.job_id)]
        for record in records:
            self._check_record(record, self.model[record.key])
            before = self.seen.get(record.key, record.state)
            assert record.state == before or \
                record.state in _TRANSITIONS[before], (before, record.state)
        self.seen = {record.key: record.state for record in records}

    @invariant()
    def armed_callbacks_equal_the_model(self):
        for parent in ("p1", "p2"):
            assert self.store.armed_callbacks(parent) == \
                len(self.armed.get(parent, []))

    @invariant()
    def counts_equal_the_model(self):
        assert self.store.counts() == \
            dict(Counter(job.state for job in self.model.values()))
        for run_id in RUNS:
            assert self.store.counts(run_id=run_id) == dict(Counter(
                job.state for job in self.model.values()
                if job.run_id == run_id))


#: Tier-1's budget; a ``HYPOTHESIS_PROFILE`` replaces it.
_BUDGET = {} if os.environ.get("HYPOTHESIS_PROFILE") else {
    "max_examples": 100, "stateful_step_count": 40}

TestJobStoreMachine = JobStoreMachine.TestCase
TestJobStoreMachine.settings = settings(deadline=None, **_BUDGET)
