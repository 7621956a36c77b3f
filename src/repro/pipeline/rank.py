"""Risk-ranked scheduling over the durable store.

Which pending job should run next?  The k8s-auto-fix pipeline answers
with a scored ordering — acceptance probability, aging, exploration —
and this module builds the same shape over :class:`JobStore`:

- **expected score** — the caller's prior on how much the job is worth
  (for the drug-design sweep: a proxy for the best LCS score a chunk
  can reach), so promising candidates run first and a stopped sweep has
  already spent its budget on the best prospects;
- **staleness** — pending age feeds the priority linearly, so low-prior
  work cannot starve forever (aging).  Every pending job ages at the
  same rate, so the ``now`` in ``age = now - created_s`` adds one
  constant to every score and drops out of the order: an older job's
  head start is ``-created_s``;
- **exploration bonus** — a *seeded* hash of the job key in ``[0, 1)``,
  scaled by a weight: a deterministic stand-in for epsilon-greedy
  exploration that keeps the ranking a pure function of (seed, jobs)
  and therefore replayable.

The order is thus a static key per job, :meth:`RankingPolicy.rank_key`,
which :meth:`JobStore.enqueue_batch` stores and :meth:`JobStore.lease`
sorts on in SQL.  :class:`StoreScheduler` is the pump between the
durable store and the in-memory
:class:`~repro.sched.executor.WorkStealingExecutor`: reclaim expired
leases, lease the top-ranked batch, dispatch it through the executor
as one task per worker, commit the batch's results in one transaction
and its failures one by one — until the store runs dry.  Durable state
only ever lives in the store (the DESIGN rule); the executor remains
the ephemeral dispatch layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.faults.injector import InjectedCrash
from repro.pipeline.store import LEASED, JobRecord, JobStore
from repro.telemetry import instrument as telemetry

__all__ = ["RankWeights", "RankingPolicy", "StoreScheduler", "exploration_bonus"]


def exploration_bonus(seed: int, key: str) -> float:
    """A seeded, PYTHONHASHSEED-proof draw in ``[0, 1)`` for ``key``
    (the same canonical-hash discipline as :mod:`repro.faults.plan`)."""
    blob = f"{seed}:explore:{key}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2**64


@dataclass(frozen=True)
class RankWeights:
    """Linear weights of the ranking score (all contributions add)."""

    expected_score: float = 1.0      # per unit of the caller's prior
    staleness_per_s: float = 0.02    # aging: priority per pending second
    exploration: float = 0.5         # scale of the seeded [0,1) bonus


class RankingPolicy:
    """Deterministic priority ordering over pending jobs."""

    def __init__(self, seed: int = 0, weights: RankWeights | None = None) -> None:
        self.seed = seed
        self.weights = weights if weights is not None else RankWeights()

    def rank_key(self, key: str, expected_score: float,
                 created_s: float) -> float:
        """The job's stored dispatch key (higher runs first): its score
        at any ``now`` less the ``staleness_per_s * now`` all jobs share."""
        w = self.weights
        return (
            w.expected_score * expected_score
            - w.staleness_per_s * created_s
            + w.exploration * exploration_bonus(self.seed, key)
        )

    def rank(self, jobs: list[JobRecord]) -> list[JobRecord]:
        """Jobs in dispatch order: key-descending, job-key-ascending ties —
        a total order, and the one :meth:`JobStore.lease` applies in SQL."""
        return sorted(jobs, key=lambda j: (
            -self.rank_key(j.key, j.expected_score, j.created_s), j.key))


class StoreScheduler:
    """Drains a durable store through a work-stealing executor."""

    def __init__(
        self,
        store: JobStore,
        owner: str = "worker",
        lease_s: float | None = None,
        batch_size: int = 32,
        max_attempts: int = 3,
        wait_s: float = 0.05,
        max_wait_rounds: int = 1200,
        speculate: bool = False,
        spec_k: float = 2.0,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.store = store
        self.owner = owner
        self.lease_s = lease_s
        self.batch_size = batch_size
        self.max_attempts = max_attempts
        self.wait_s = wait_s
        self.max_wait_rounds = max_wait_rounds
        self.speculate = speculate
        self.spec_k = spec_k

    def drain(
        self,
        executor: Any,
        handler: Callable[[JobRecord], Any],
        run_id: str | None = None,
        stage: str | None = None,
    ) -> dict[str, int]:
        """Run every matching job to a terminal state; returns counters.

        Per round: reclaim expired leases, lease the top ``batch_size``
        pending jobs in the store's dispatch order (:meth:`JobStore.lease`
        picks them in SQL, so no round reads the whole pending set),
        dispatch the batch through ``executor.map_chunked`` as one task
        per worker (``ceil(len(batch) / executor.n_workers)`` jobs each,
        so the executor's per-task bookkeeping is paid per worker, not
        per job), commit its results with one
        :meth:`JobStore.complete_many` (handler exceptions become
        ``failed`` rows, retried while attempts remain), repeat.  Each
        job in a task keeps its own outcome: a handler that raises fails
        only its own job, and its chunk-mates still commit.  An injected
        crash (``sched.task``, or raised by a handler) re-runs the whole
        task under the executor's retry, which is safe because nothing
        commits before the batch returns.  When nothing is left to lease
        but another live worker still holds leases, the drain waits for
        those jobs to finish or expire instead of returning early.

        On entry any lease held under *this scheduler's own owner name*
        is released immediately (restart fencing): a scheduler that just
        started cannot be running anything, so such leases belong to a
        dead previous incarnation.

        While a batch runs, a background heartbeat renews this owner's
        leases every ``lease_s / 3`` seconds, so ``lease_s`` may be much
        shorter than the longest handler: a crashed worker's jobs are
        reclaimed after one short TTL, while a *live* worker's jobs keep
        their lease for as long as the handler actually runs — no other
        worker can reclaim mid-flight work and run it twice.

        With ``speculate=True`` a straggler policy
        (:class:`~repro.sched.spec.SpecPolicy` with ``k=spec_k``) is
        installed on ``executor`` before the first batch: a task of jobs
        stuck behind a slow worker gets a backup copy and the first
        completion wins.  Handlers must be pure/idempotent (the same
        contract resumable stages already demand) — exactly one result
        per job is committed to the store either way.
        """
        if self.speculate and hasattr(executor, "speculate"):
            from repro.sched.spec import SpecPolicy

            if getattr(executor, "spec_engine", None) is None:
                executor.speculate(SpecPolicy(k=self.spec_k))
        stats = {"rounds": 0, "leased": 0, "completed": 0, "failed": 0,
                 "retried": 0, "reclaimed": 0, "waits": 0, "renewed": 0}
        stats["reclaimed"] += len(self.store.release_owner(self.owner))
        waits = 0
        with telemetry.span("pipeline.drain", category="pipeline",
                            owner=self.owner, stage=stage or ""):
            while True:
                stats["reclaimed"] += len(self.store.reclaim_expired())
                batch = self.store.lease(
                    self.owner, lease_s=self.lease_s, run_id=run_id,
                    stage=stage, limit=self.batch_size,
                )
                if not batch:
                    others = self.store.counts(
                        run_id=run_id, stage=stage).get(LEASED, 0)
                    if not others:
                        return stats
                    # Another worker on this store holds live leases;
                    # wait for completion or expiry (bounded).
                    waits += 1
                    stats["waits"] += 1
                    if waits > self.max_wait_rounds:
                        raise TimeoutError(
                            f"drain stalled: {others} job(s) leased by "
                            f"other workers never finished or expired"
                        )
                    time.sleep(self.wait_s)
                    continue
                waits = 0
                stats["rounds"] += 1
                stats["leased"] += len(batch)
                with self._heartbeat([job.job_id for job in batch], stats):
                    results = executor.map_chunked(
                        batch,
                        lambda jobs: [self._run_one(handler, job)
                                      for job in jobs],
                        chunk_size=-(-len(batch) // executor.n_workers),
                        name="pipeline.jobs",
                    )
                outcomes = list(zip(batch, results))
                done = [(job.job_id, value)
                        for job, (tag, value) in outcomes if tag == "ok"]
                self.store.complete_many(done)
                stats["completed"] += len(done)
                for job, (tag, value) in outcomes:
                    if tag != "ok":
                        retry = job.attempts < self.max_attempts
                        self.store.fail(job.job_id, value, retry=retry)
                        stats["retried" if retry else "failed"] += 1

    @contextlib.contextmanager
    def _heartbeat(self, job_ids: list[int],
                   stats: dict[str, int]) -> Iterator[None]:
        """Renew this owner's leases in the background while a batch runs.

        Fires every ``lease_s / 3`` — two missed beats of margin before
        the lease actually expires.  The renewal UPDATE is fenced on
        ``state = 'leased' AND lease_owner = ?``, so a heartbeat that
        races a completed (or reclaimed) job is a no-op, never a
        resurrection.  With ``lease_s=None`` (the store default TTL
        still applies) the cadence falls back to a third of the store's
        own default.
        """
        ttl = self.lease_s if self.lease_s is not None else self.store.lease_s
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(ttl / 3.0):
                try:
                    renewed = self.store.renew_lease(
                        self.owner, job_ids, self.lease_s
                    )
                except Exception:  # noqa: BLE001 - next beat retries
                    continue
                with lock:
                    counts["renewed"] += len(renewed)

        lock = threading.Lock()
        counts = {"renewed": 0}
        thread = threading.Thread(
            target=beat, name=f"lease-heartbeat-{self.owner}", daemon=True
        )
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()
            stats["renewed"] += counts["renewed"]

    @staticmethod
    def _run_one(handler: Callable[[JobRecord], Any],
                 job: JobRecord) -> tuple[str, Any]:
        """Tag the outcome instead of raising: a failed *workload* is a
        stored result, not a scheduler fault.  Injected crashes pass
        through untouched — the executor's own ``sched.task`` retry
        machinery (and the chaos scenarios) own that path."""
        try:
            return "ok", handler(job)
        except InjectedCrash:
            raise
        except Exception as exc:  # noqa: BLE001 - recorded on the job row
            return "err", repr(exc)
