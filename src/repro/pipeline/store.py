"""The durable job store: SQLite with WAL, leases, and checkpoints.

One file holds three tables:

- ``jobs`` — the durable work queue.  States move along
  ``pending → leased → done | failed`` (with ``pending → cancelled``
  and ``leased → pending`` for retry/reclaim); any other transition
  raises :class:`TransitionError`.  Enqueue is **idempotent**: a job's
  identity is the content-addressed fingerprint of its
  ``(run_id, stage, payload)`` (the same SHA-256 canonicalisation as
  :mod:`repro.sched.cache`), so re-submitting after a crash finds the
  existing row — and its result, if the job already finished.
- ``checkpoints`` — per-stage pipeline outputs keyed by
  ``(run_id, stage)``; what :class:`~repro.pipeline.stages.Pipeline`
  resumes from.
- ``callbacks`` — durable ``on_complete`` follow-ups the serve layer
  arms against a job key and claims exactly once at terminal state.
- ``completions`` — a durable terminal marker per parent key (state +
  finish time).  Serve jobs themselves live in memory, so after a
  restart the callbacks table alone cannot distinguish "parent still
  running" from "parent finished while the service was closing"; this
  marker is what lets :meth:`JobStore.stranded_callbacks` find armed
  specs whose parent already ended so a new incarnation can resubmit
  them instead of waiting for a completion that will never recur.

Durability and atomicity come from SQLite itself: WAL journaling, and
every mutation inside an explicit ``BEGIN IMMEDIATE`` transaction, so a
``SIGKILL`` at any instant leaves either the old state or the new one,
never a torn row.  **Leases** make worker death recoverable: claiming a
job stamps an owner and an expiry; :meth:`JobStore.reclaim_expired`
moves timed-out leases back to ``pending`` (attempts preserved), and
:meth:`JobStore.release_owner` lets a restarted worker fence its own
previous incarnation immediately.  **Dispatch order** is a stored,
indexed ``rank_key`` (see
:meth:`repro.pipeline.rank.RankingPolicy.rank_key`): :meth:`JobStore.lease`
picks the top pending batch with ``ORDER BY rank_key DESC, key`` inside
its own transaction, so no caller re-reads the pending set to rank it.

Every write transaction is a ``pipeline.store`` fault site — an
injected crash aborts the transaction (rollback, then the exception
propagates), which is exactly how chaos tests exercise the
crash-mid-commit path without a real ``kill -9``.  A completion batch
(:meth:`JobStore.complete_many`) is one transaction whose site fires
once per row, so a crash at any row rolls back the whole batch.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Mapping, Sequence
from contextlib import contextmanager

from repro.faults import hooks as faults
from repro.sched.cache import fingerprint
from repro.telemetry import instrument as telemetry

__all__ = [
    "JobRecord",
    "JobStore",
    "StoreError",
    "TransitionError",
    "PENDING",
    "LEASED",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
    "job_key",
]

PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: The legal state machine; anything else is a :class:`TransitionError`.
_TRANSITIONS: dict[str, frozenset[str]] = {
    PENDING: frozenset({LEASED, CANCELLED}),
    LEASED: frozenset({DONE, FAILED, PENDING}),
    DONE: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    key            TEXT NOT NULL UNIQUE,
    run_id         TEXT NOT NULL DEFAULT '',
    stage          TEXT NOT NULL DEFAULT '',
    payload        TEXT NOT NULL DEFAULT '{}',
    expected_score REAL NOT NULL DEFAULT 0.0,
    state          TEXT NOT NULL DEFAULT 'pending',
    attempts       INTEGER NOT NULL DEFAULT 0,
    lease_owner    TEXT,
    lease_expires_s REAL,
    created_s      REAL NOT NULL,
    updated_s      REAL NOT NULL,
    result         TEXT,
    error          TEXT,
    rank_key       REAL
);
CREATE TABLE IF NOT EXISTS checkpoints (
    run_id    TEXT NOT NULL,
    stage     TEXT NOT NULL,
    payload   TEXT NOT NULL,
    created_s REAL NOT NULL,
    PRIMARY KEY (run_id, stage)
);
CREATE TABLE IF NOT EXISTS callbacks (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    parent_key TEXT NOT NULL,
    spec       TEXT NOT NULL,
    state      TEXT NOT NULL DEFAULT 'armed',
    created_s  REAL NOT NULL,
    fired_s    REAL
);
CREATE INDEX IF NOT EXISTS callbacks_by_parent ON callbacks(parent_key, state);
CREATE TABLE IF NOT EXISTS completions (
    parent_key TEXT PRIMARY KEY,
    state      TEXT NOT NULL,
    finished_s REAL NOT NULL
);
"""


#: Run after the tables exist (and after an older file gained
#: ``rank_key``): the lease index serves ``ORDER BY rank_key DESC, key``
#: within one (state, run, stage) and every filter on its prefix.
_INDEXES = """
DROP INDEX IF EXISTS jobs_by_state;
CREATE INDEX IF NOT EXISTS jobs_by_rank
    ON jobs(state, run_id, stage, rank_key DESC, key);
"""

#: Host parameters per ``IN (...)`` list, under SQLite's oldest limit (999).
_CHUNK = 500


def _chunks(values: Sequence[Any]) -> Iterator[Sequence[Any]]:
    for start in range(0, len(values), _CHUNK):
        yield values[start:start + _CHUNK]


def _marks(values: Sequence[Any]) -> str:
    return ",".join("?" * len(values))


def _where(**filters: Any) -> tuple[str, list[Any]]:
    """``WHERE`` over the filters that are not None (``""`` when none are)."""
    clauses = [f"{column} = ?" for column, value in filters.items()
               if value is not None]
    params = [value for value in filters.values() if value is not None]
    return (f"WHERE {' AND '.join(clauses)}" if clauses else ""), params


class StoreError(RuntimeError):
    """A job-store operation could not be applied."""


class TransitionError(StoreError):
    """An illegal job state transition was requested."""


def _canonical_json(obj: Any) -> str:
    """Deterministic JSON — the byte identity checkpoints rely on."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def job_key(run_id: str, stage: str, payload: Any) -> str:
    """The content-addressed identity of a job (idempotent enqueue)."""
    return _job_key(run_id, stage, _canonical_json(payload))


def _job_key(run_id: str, stage: str, payload_json: str) -> str:
    return fingerprint("pipeline.job", run_id, stage, payload_json)


@dataclass(frozen=True)
class JobRecord:
    """One durable job row, decoded."""

    job_id: int
    key: str
    run_id: str
    stage: str
    payload: Any
    expected_score: float
    state: str
    attempts: int
    lease_owner: str | None
    lease_expires_s: float | None
    created_s: float
    updated_s: float
    result: Any
    error: str | None
    rank_key: float | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


#: The ``jobs`` columns in :class:`JobRecord` field order: every read of
#: whole rows selects exactly these, and :func:`_decode` takes them by
#: position.
_COLUMNS = ("id, key, run_id, stage, payload, expected_score, state, "
            "attempts, lease_owner, lease_expires_s, created_s, updated_s, "
            "result, error, rank_key")


def _decode(row: tuple) -> JobRecord:
    (job_id, key, run_id, stage, payload, expected_score, state, attempts,
     lease_owner, lease_expires_s, created_s, updated_s, result, error,
     rank_key) = row
    return JobRecord(
        job_id, key, run_id, stage, json.loads(payload), expected_score,
        state, attempts, lease_owner, lease_expires_s, created_s, updated_s,
        None if result is None else json.loads(result), error, rank_key,
    )


def _new_record(job_id: int, row: tuple) -> JobRecord:
    """The record of a row :meth:`JobStore.enqueue_batch` just inserted."""
    key, run_id, stage, payload, expected_score, rank_key, created_s, \
        updated_s = row
    return JobRecord(
        job_id, key, run_id, stage, json.loads(payload), expected_score,
        PENDING, 0, None, None, created_s, updated_s, None, None, rank_key,
    )


class JobStore:
    """Durable SQLite-backed job store (thread-safe, multi-process-safe).

    ``path`` may be a filesystem path or ``":memory:"`` (the mechanism
    without the durability — useful for tests and the default serve
    callback store).  ``clock`` is injectable so lease expiry is
    testable without real waiting.
    """

    def __init__(
        self,
        path: str,
        clock: Callable[[], float] = time.time,
        lease_s: float = 30.0,
        busy_timeout_s: float = 10.0,
    ) -> None:
        if lease_s <= 0:
            raise ValueError(f"lease_s must be > 0, got {lease_s}")
        self.path = path
        self.clock = clock
        self.lease_s = lease_s
        directory = os.path.dirname(os.path.abspath(path))
        if path != ":memory:" and directory:
            os.makedirs(directory, exist_ok=True)
        # One connection, explicit transactions, cross-thread use guarded
        # by our own lock (SQLite serialises cross-process access itself).
        self._conn = sqlite3.connect(
            path, timeout=busy_timeout_s, check_same_thread=False,
            isolation_level=None,
        )
        self._lock = threading.RLock()
        with self._lock:
            if path != ":memory:":
                self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._add_rank_key_column()
            self._conn.executescript(_INDEXES)

    def _add_rank_key_column(self) -> None:
        """Give a file written before ``rank_key`` existed the column.

        Its rows keep a NULL key until they are re-enqueued (see
        :meth:`enqueue_batch`); until then they lease after every keyed
        row.  The check repeats inside the write lock, so two processes
        opening the same old file add the column once.
        """
        def missing() -> bool:
            return "rank_key" not in {
                row[1] for row in self._conn.execute("PRAGMA table_info(jobs)")
            }

        if not missing():
            return
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            if missing():
                self._conn.execute("ALTER TABLE jobs ADD COLUMN rank_key REAL")
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    # -- plumbing ------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    @contextmanager
    def _write(self, op: str, fire: bool = True) -> Iterator[sqlite3.Connection]:
        """One atomic write transaction; also the ``pipeline.store``
        fault site (fired before COMMIT, unless the caller fires it
        itself with ``fire=False``).  An injected crash (or any error)
        rolls the whole transaction back before propagating — the store
        never commits a partial mutation."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self._conn
                if fire:
                    faults.fire("pipeline.store", key=op, op=op)
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def _now(self) -> float:
        return float(self.clock())

    # -- enqueue -------------------------------------------------------------

    def enqueue(
        self,
        run_id: str = "",
        stage: str = "",
        payload: Any = None,
        expected_score: float = 0.0,
        key: str | None = None,
    ) -> tuple[JobRecord, bool]:
        """Admit one job; see :meth:`enqueue_batch`."""
        return self.enqueue_batch([{
            "run_id": run_id, "stage": stage, "payload": payload,
            "expected_score": expected_score, "key": key,
        }])[0]

    def enqueue_batch(
        self,
        specs: Sequence[Mapping[str, Any]],
        rank_key: Callable[[str, float, float], float] | None = None,
    ) -> list[tuple[JobRecord, bool]]:
        """Admit jobs idempotently in one transaction.

        Returns ``(record, created)`` per spec: a spec whose key already
        exists returns the **existing** row (whatever its state —
        including ``done`` with its stored result) and ``created=False``.
        That is what makes a re-submitted sweep resume instead of
        duplicate.

        ``rank_key(key, expected_score, created_s)`` gives each new row
        its stored dispatch key (without it the key is NULL), and fills
        the key of an existing row that has none, from that row's own
        ``expected_score`` and ``created_s``.

        A cold batch — the INSERT created every row, so no key repeats
        and none existed — reads nothing back: its records are built
        from the rows it wrote, with the ids AUTOINCREMENT gave them (a
        consecutive run ending at ``last_insert_rowid()``, since
        ``BEGIN IMMEDIATE`` keeps every other writer out).  Any other
        batch reads its rows back by key.
        """
        now = self._now()
        rows = []
        for spec in specs:
            payload = _canonical_json(spec.get("payload"))
            run_id = str(spec.get("run_id", ""))
            stage = str(spec.get("stage", ""))
            key = spec.get("key") or _job_key(run_id, stage, payload)
            expected = float(spec.get("expected_score", 0.0))
            rows.append((key, run_id, stage, payload, expected,
                         None if rank_key is None
                         else float(rank_key(key, expected, now)),
                         now, now))
        keys = list(dict.fromkeys(row[0] for row in rows))
        with self._write("enqueue") as conn:
            # AUTOINCREMENT ids only grow, so a row is new iff its id is
            # above every id that existed before this INSERT.
            (last_id,) = conn.execute(
                "SELECT COALESCE(MAX(id), 0) FROM jobs").fetchone()
            inserted = conn.executemany(
                "INSERT INTO jobs (key, run_id, stage, payload, "
                "  expected_score, rank_key, state, created_s, updated_s) "
                "VALUES (?, ?, ?, ?, ?, ?, 'pending', ?, ?) "
                "ON CONFLICT(key) DO NOTHING",
                rows,
            ).rowcount
            if inserted == len(rows) == len(keys):
                (end,) = conn.execute("SELECT last_insert_rowid()").fetchone()
                first = end - len(rows) + 1
                out = [(_new_record(first + offset, row), True)
                       for offset, row in enumerate(rows)]
            else:
                out = self._read_back_locked(conn, rows, keys, last_id,
                                             rank_key)
        if inserted:
            telemetry.inc("pipeline.jobs.enqueued", inserted)
        return out

    @staticmethod
    def _read_back_locked(
        conn: sqlite3.Connection,
        rows: list[tuple],
        keys: list[str],
        last_id: int,
        rank_key: Callable[[str, float, float], float] | None,
    ) -> list[tuple[JobRecord, bool]]:
        """:meth:`enqueue_batch`'s records when some key repeated or
        already existed: read back by key, keying any unkeyed old row."""
        found = {}
        for chunk in _chunks(keys):
            found.update(
                (row[1], _decode(row)) for row in conn.execute(
                    f"SELECT {_COLUMNS} FROM jobs WHERE key IN ({_marks(chunk)})",
                    chunk))
        if rank_key is not None:
            unkeyed = [record for record in found.values()
                       if record.rank_key is None]
            for record in unkeyed:
                found[record.key] = replace(record, rank_key=float(rank_key(
                    record.key, record.expected_score, record.created_s)))
            conn.executemany(
                "UPDATE jobs SET rank_key = ? WHERE id = ?",
                [(found[record.key].rank_key, record.job_id)
                 for record in unkeyed])
        out: list[tuple[JobRecord, bool]] = []
        seen: set[str] = set()
        for key in (row[0] for row in rows):
            record = found[key]
            out.append((record, record.job_id > last_id and key not in seen))
            seen.add(key)
        return out

    # -- lookup --------------------------------------------------------------

    def get(self, job_id: int) -> JobRecord:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise KeyError(job_id)
        return _decode(row)

    def get_by_key(self, key: str) -> JobRecord:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_COLUMNS} FROM jobs WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            raise KeyError(key)
        return _decode(row)

    def jobs(
        self,
        run_id: str | None = None,
        stage: str | None = None,
        state: str | None = None,
    ) -> list[JobRecord]:
        """Matching jobs in enqueue (id) order."""
        where, params = _where(run_id=run_id, stage=stage, state=state)
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {_COLUMNS} FROM jobs {where} ORDER BY id", params
            ).fetchall()
        return [_decode(row) for row in rows]

    def outcomes(
        self, run_id: str | None = None, stage: str | None = None
    ) -> dict[str, tuple[int, str, Any, str | None]]:
        """``{key: (job_id, state, result, error)}`` over the matching
        jobs: what a fan-out reads back once its drain ends, without
        decoding any payload."""
        where, params = _where(run_id=run_id, stage=stage)
        with self._lock:
            rows = self._conn.execute(
                f"SELECT key, id, state, result, error FROM jobs {where}",
                params).fetchall()
        return {key: (job_id, state,
                      None if result is None else json.loads(result), error)
                for key, job_id, state, result, error in rows}

    def pending_jobs(
        self, run_id: str | None = None, stage: str | None = None
    ) -> list[JobRecord]:
        return self.jobs(run_id=run_id, stage=stage, state=PENDING)

    def counts(
        self, run_id: str | None = None, stage: str | None = None
    ) -> dict[str, int]:
        """``{state: count}`` over (optionally one run's, one stage's) jobs."""
        where, params = _where(run_id=run_id, stage=stage)
        with self._lock:
            rows = self._conn.execute(
                f"SELECT state, COUNT(*) FROM jobs {where} "
                f"GROUP BY state ORDER BY state", params
            ).fetchall()
        return dict(rows)

    # -- the state machine ---------------------------------------------------

    def _transition_locked(
        self,
        conn: sqlite3.Connection,
        job_id: int,
        to_state: str,
        *,
        expect: str,
        sets: str = "",
        params: Sequence[Any] = (),
    ) -> None:
        """Apply one guarded transition or raise :class:`TransitionError`.

        The guard is in the ``UPDATE ... WHERE state = ?`` itself, so the
        check-and-set is a single atomic statement even with concurrent
        writers on other connections.
        """
        cursor = conn.execute(
            f"UPDATE jobs SET state = ?, updated_s = ?{sets} "
            f"WHERE id = ? AND state = ?",
            (to_state, self._now(), *params, job_id, expect),
        )
        if cursor.rowcount == 1:
            return
        row = conn.execute(
            "SELECT state FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise KeyError(job_id)
        raise TransitionError(
            f"job {job_id}: illegal transition {row[0]!r} -> "
            f"{to_state!r} (legal from {row[0]!r}: "
            f"{sorted(_TRANSITIONS.get(row[0], ())) or 'nothing'})"
        )

    def lease(
        self,
        owner: str,
        job_ids: Sequence[int] | None = None,
        lease_s: float | None = None,
        *,
        run_id: str | None = None,
        stage: str | None = None,
        limit: int | None = None,
    ) -> list[JobRecord]:
        """Atomically claim pending jobs for ``owner``.

        With ``job_ids`` the claim is those jobs, in that order.  Without,
        it is the top ``limit`` pending jobs (all, for None) of the
        ``run_id``/``stage`` filter in dispatch order — ``rank_key``
        descending, ``key`` ascending on ties, NULL keys last — chosen
        inside the same transaction that claims them.

        Returns the claimed records in claim order (attempts incremented,
        lease expiry stamped).  Jobs that are no longer pending — another
        worker got there first — are silently skipped: leasing races, it
        does not raise.
        """
        ttl = self.lease_s if lease_s is None else float(lease_s)
        now = self._now()
        with self._write("lease") as conn:
            if job_ids is None:
                where, params = _where(state=PENDING, run_id=run_id, stage=stage)
                ids = [row[0] for row in conn.execute(
                    f"SELECT id FROM jobs {where} "
                    f"ORDER BY rank_key DESC, key LIMIT ?",
                    (*params, -1 if limit is None else limit))]
            else:
                wanted = list(dict.fromkeys(job_ids))
                pending: set[int] = set()
                for chunk in _chunks(wanted):
                    pending.update(row[0] for row in conn.execute(
                        f"SELECT id FROM jobs WHERE state = 'pending' "
                        f"AND id IN ({_marks(chunk)})", chunk))
                ids = [job_id for job_id in wanted if job_id in pending]
            rows = {}
            for chunk in _chunks(ids):
                conn.execute(
                    f"UPDATE jobs SET state = 'leased', lease_owner = ?, "
                    f"  lease_expires_s = ?, attempts = attempts + 1, "
                    f"  updated_s = ? WHERE id IN ({_marks(chunk)})",
                    (owner, now + ttl, now, *chunk))
                rows.update((row[0], row) for row in conn.execute(
                    f"SELECT {_COLUMNS} FROM jobs WHERE id IN ({_marks(chunk)})",
                    chunk))
        claimed = [_decode(rows[job_id]) for job_id in ids]
        if claimed:
            telemetry.inc("pipeline.jobs.leased", len(claimed))
        return claimed

    def lease_next(
        self, owner: str, limit: int = 1, lease_s: float | None = None
    ) -> list[JobRecord]:
        """Claim up to ``limit`` pending jobs in plain enqueue order
        (the unranked path; benchmarks and simple consumers)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT id FROM jobs WHERE state = 'pending' "
                "ORDER BY id LIMIT ?", (limit,)
            ).fetchall()
        return self.lease(owner, [row[0] for row in rows], lease_s)

    def renew_lease(
        self,
        owner: str,
        job_ids: Sequence[int],
        lease_s: float | None = None,
    ) -> list[int]:
        """Extend ``owner``'s still-held leases by a fresh TTL.

        The heartbeat half of the lease protocol: a live worker running
        a handler longer than ``lease_s`` renews periodically, so the
        TTL can be sized for *detecting death quickly* instead of for
        the slowest handler.  Only jobs still leased **by this owner**
        are touched — a job another worker already reclaimed (this
        worker was presumed dead) is left alone, and its absence from
        the returned ids is the signal the renewal lost the race.
        """
        ttl = self.lease_s if lease_s is None else float(lease_s)
        now = self._now()
        renewed: list[int] = []
        with self._write("renew") as conn:
            for job_id in job_ids:
                cursor = conn.execute(
                    "UPDATE jobs SET lease_expires_s = ?, updated_s = ? "
                    "WHERE id = ? AND state = 'leased' AND lease_owner = ?",
                    (now + ttl, now, job_id, owner),
                )
                if cursor.rowcount == 1:
                    renewed.append(job_id)
        if renewed:
            telemetry.inc("pipeline.leases.renewed", len(renewed))
        return renewed

    def complete(self, job_id: int, result: Any = None) -> JobRecord:
        """``leased → done`` with a JSON-safe result payload."""
        self.complete_many([(job_id, result)])
        return self.get(job_id)

    def complete_many(self, pairs: Sequence[tuple[int, Any]]) -> None:
        """``leased → done`` for every ``(job_id, result)`` pair, in one
        transaction.

        One guarded ``executemany`` (``WHERE id = ? AND state =
        'leased'``) moves the whole batch.  If it moved fewer rows than
        it was given, some job was not leased (or came twice): the batch
        is undone and replayed row by row up to the first offending job,
        whose :class:`TransitionError` (``KeyError`` for an unknown id)
        propagates and rolls the transaction back.  After the moves the
        ``pipeline.store`` site fires once per row (keyed ``complete``)
        before COMMIT, so fault indices count completions exactly as
        one-row commits would; a crash at any row rolls back the whole
        batch.
        """
        if not pairs:
            return
        with self._write("complete", fire=False) as conn:
            now = self._now()
            rows = [(now, _canonical_json(result), job_id)
                    for job_id, result in pairs]
            conn.execute("SAVEPOINT complete_many")
            moved = conn.executemany(
                "UPDATE jobs SET state = 'done', updated_s = ?, result = ?, "
                "  lease_owner = NULL, lease_expires_s = NULL "
                "WHERE id = ? AND state = 'leased'", rows).rowcount
            if moved != len(rows):
                conn.execute("ROLLBACK TO complete_many")
                for _now, result, job_id in rows:
                    self._transition_locked(
                        conn, job_id, DONE, expect=LEASED,
                        sets=", result = ?, lease_owner = NULL, "
                             "lease_expires_s = NULL",
                        params=(result,),
                    )
            for _row in rows:
                faults.fire("pipeline.store", key="complete", op="complete")
        telemetry.inc("pipeline.jobs.completed", len(pairs))

    def fail(
        self, job_id: int, error: str, retry: bool = False
    ) -> JobRecord:
        """``leased → failed`` — or back to ``pending`` with ``retry``
        (attempts are preserved, so callers can cap retry counts)."""
        to_state = PENDING if retry else FAILED
        with self._write("fail") as conn:
            self._transition_locked(
                conn, job_id, to_state, expect=LEASED,
                sets=", error = ?, lease_owner = NULL, lease_expires_s = NULL",
                params=(str(error),),
            )
        telemetry.inc("pipeline.jobs.retried" if retry
                      else "pipeline.jobs.failed")
        return self.get(job_id)

    def cancel(self, job_id: int) -> bool:
        """``pending → cancelled``; False if the job was already claimed
        or terminal (cancelling a racing job is not an error)."""
        with self._write("cancel") as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = 'cancelled', updated_s = ? "
                "WHERE id = ? AND state = 'pending'",
                (self._now(), job_id),
            )
            ok = cursor.rowcount == 1
        if ok:
            telemetry.inc("pipeline.jobs.cancelled")
        return ok

    def reclaim_expired(self, now: float | None = None) -> list[int]:
        """Move every expired lease back to ``pending``.

        The crash-recovery path: a worker that died mid-job stops
        renewing its lease; once ``lease_expires_s`` passes, any other
        worker's reclaim sweep re-arms the job (attempts preserved).
        Returns the reclaimed job ids.
        """
        stamp = self._now() if now is None else float(now)
        with self._write("reclaim") as conn:
            rows = conn.execute(
                "SELECT id FROM jobs WHERE state = 'leased' "
                "AND lease_expires_s < ? ORDER BY id", (stamp,)
            ).fetchall()
            ids = [row[0] for row in rows]
            if ids:
                conn.execute(
                    f"UPDATE jobs SET state = 'pending', lease_owner = NULL, "
                    f"  lease_expires_s = NULL, updated_s = ? "
                    f"WHERE id IN ({','.join('?' * len(ids))}) "
                    f"AND state = 'leased'",
                    (stamp, *ids),
                )
        if ids:
            telemetry.inc("pipeline.jobs.reclaimed", len(ids))
        return ids

    def release_owner(self, owner: str) -> list[int]:
        """Immediately re-arm every job leased by ``owner``.

        Restart fencing: a worker that just started cannot be running
        anything, so any lease under its own name belongs to a dead
        previous incarnation — reclaim without waiting out the TTL.
        """
        with self._write("release") as conn:
            rows = conn.execute(
                "SELECT id FROM jobs WHERE state = 'leased' "
                "AND lease_owner = ? ORDER BY id", (owner,)
            ).fetchall()
            ids = [row[0] for row in rows]
            if ids:
                conn.execute(
                    f"UPDATE jobs SET state = 'pending', lease_owner = NULL, "
                    f"  lease_expires_s = NULL, updated_s = ? "
                    f"WHERE id IN ({','.join('?' * len(ids))})",
                    (self._now(), *ids),
                )
        if ids:
            telemetry.inc("pipeline.jobs.reclaimed", len(ids))
        return ids

    # -- checkpoints ---------------------------------------------------------

    def checkpoint_put(self, run_id: str, stage: str, payload: Any) -> None:
        """Store one stage's output (idempotent overwrite)."""
        with self._write("checkpoint") as conn:
            conn.execute(
                "INSERT INTO checkpoints (run_id, stage, payload, created_s) "
                "VALUES (?, ?, ?, ?) "
                "ON CONFLICT(run_id, stage) DO UPDATE SET "
                "  payload = excluded.payload, created_s = excluded.created_s",
                (run_id, stage, _canonical_json(payload), self._now()),
            )
        telemetry.inc("pipeline.checkpoints.written")

    def checkpoint_get(self, run_id: str, stage: str) -> Any | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM checkpoints WHERE run_id = ? AND stage = ?",
                (run_id, stage),
            ).fetchone()
        return None if row is None else json.loads(row[0])

    def checkpoint_stages(self, run_id: str) -> list[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT stage FROM checkpoints WHERE run_id = ? "
                "ORDER BY created_s, stage", (run_id,)
            ).fetchall()
        return [row[0] for row in rows]

    def clear_run(self, run_id: str) -> int:
        """Drop a run's checkpoints and jobs (a fresh, non-resumed start)."""
        with self._write("clear") as conn:
            removed = conn.execute(
                "DELETE FROM checkpoints WHERE run_id = ?", (run_id,)
            ).rowcount
            removed += conn.execute(
                "DELETE FROM jobs WHERE run_id = ?", (run_id,)
            ).rowcount
        return removed

    # -- completion callbacks ------------------------------------------------

    def add_callback(self, parent_key: str, spec: Mapping[str, Any]) -> int:
        """Arm a durable follow-up against ``parent_key``; returns its id."""
        with self._write("callback") as conn:
            cursor = conn.execute(
                "INSERT INTO callbacks (parent_key, spec, state, created_s) "
                "VALUES (?, ?, 'armed', ?)",
                (parent_key, _canonical_json(dict(spec)), self._now()),
            )
        telemetry.inc("pipeline.callbacks.armed")
        return int(cursor.lastrowid)

    def claim_callbacks(self, parent_key: str) -> list[dict[str, Any]]:
        """Atomically fire every armed callback for ``parent_key``.

        Each callback is claimed exactly once (armed → fired in the same
        transaction that reads it), so a parent completing twice — e.g.
        a cached resubmit — cannot double-enqueue the follow-up.
        """
        now = self._now()
        with self._write("callback") as conn:
            rows = conn.execute(
                "SELECT id, spec FROM callbacks "
                "WHERE parent_key = ? AND state = 'armed' ORDER BY id",
                (parent_key,),
            ).fetchall()
            ids = [row[0] for row in rows]
            if ids:
                conn.execute(
                    f"UPDATE callbacks SET state = 'fired', fired_s = ? "
                    f"WHERE id IN ({','.join('?' * len(ids))})",
                    (now, *ids),
                )
        if ids:
            telemetry.inc("pipeline.callbacks.fired", len(ids))
        return [json.loads(row[1]) for row in rows]

    def armed_callbacks(self, parent_key: str | None = None) -> int:
        where, params = ("AND parent_key = ?", (parent_key,)) \
            if parent_key is not None else ("", ())
        with self._lock:
            row = self._conn.execute(
                f"SELECT COUNT(*) FROM callbacks "
                f"WHERE state = 'armed' {where}", params
            ).fetchone()
        return int(row[0])

    # -- terminal markers (restart-safe callback delivery) -------------------

    def mark_terminal(self, parent_key: str, state: str) -> None:
        """Durably record that ``parent_key`` reached a terminal state.

        Idempotent upsert; the serve layer writes it at every terminal
        transition (done/failed/cancelled), including during shutdown
        drain — which is exactly the window that strands callbacks.
        """
        if state not in TERMINAL_STATES:
            raise ValueError(f"not a terminal state: {state!r}")
        with self._write("terminal") as conn:
            conn.execute(
                "INSERT INTO completions (parent_key, state, finished_s) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT(parent_key) DO UPDATE SET "
                "  state = excluded.state, finished_s = excluded.finished_s",
                (parent_key, state, self._now()),
            )

    def terminal_state(self, parent_key: str) -> str | None:
        """The recorded terminal state of ``parent_key``, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT state FROM completions WHERE parent_key = ?",
                (parent_key,),
            ).fetchone()
        return None if row is None else str(row[0])

    def stranded_callbacks(self) -> list[tuple[str, str]]:
        """Parents with armed callbacks that already ended.

        Returns ``(parent_key, terminal_state)`` pairs, one per parent,
        in key order.  These specs will never fire on their own — the
        completion they wait for already happened — so a restarted
        service resubmits them (claiming each via
        :meth:`claim_callbacks`, which keeps exactly-once).
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT c.parent_key AS parent_key, "
                "       t.state AS state "
                "FROM callbacks c JOIN completions t "
                "  ON t.parent_key = c.parent_key "
                "WHERE c.state = 'armed' ORDER BY c.parent_key"
            ).fetchall()
        return [(str(parent_key), str(state)) for parent_key, state in rows]
