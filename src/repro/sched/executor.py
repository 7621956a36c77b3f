"""The work-stealing executor: one execution substrate for every runtime.

Structure (the classic shape — Cilk, TBB, ForkJoinPool, and the PDC
patternlets' master/worker generalisation):

- an **admission queue** (:class:`~repro.sched.queue.JobQueue`):
  priority-ordered, batch submission, bounded backpressure;
- **per-worker deques**: owners push/pop at the bottom (LIFO), thieves
  steal from the top (FIFO);
- a **seeded steal order** (:class:`~repro.sched.core.StealOrder`): which
  victim an idle worker probes is a pure function of (seed, worker,
  attempt), never of timing or ``hash`` salt.

Two execution modes share all of that machinery:

- ``deterministic=True`` (default) — a single-threaded *stepping* loop:
  each round polls workers in index order; a worker runs one task per
  round (own deque → admission queue → steal).  Scheduling becomes a
  pure function of (workload, workers, seed): the event log replays
  byte-identically across processes and ``PYTHONHASHSEED`` values — the
  property ``python -m repro sched`` demonstrates and the tests pin.
- ``deterministic=False`` — real worker threads for wall-clock
  concurrency, the mode the job service runs.  Same deques, same seeded
  steal order; the log is rendered sorted because arrival order is racy.

Orthogonal to both scheduling modes is the **execution vehicle**
(``mode``): ``"threaded"`` runs task bodies in-process; ``"mp"`` ships
:class:`~repro.sched.core.Call` task bodies to a per-worker child
process (:class:`repro.procpool.ProcessPool`) so pure-Python work
escapes the GIL, with ``multiprocessing.shared_memory`` handoff for
large NumPy arguments.  Scheduling never changes: the executor decides
(worker, task) exactly as before and then ships the body to *that*
worker's child, so the canonical stepping-mode event log is
byte-identical between ``mode="threaded"`` and ``mode="mp"``.  Plain
closures (which cannot pickle) still run, inline in the parent.

Every dispatch is a :mod:`repro.faults` injection site (``sched.task``);
injected crashes/transients are retried up to ``max_attempts`` by
re-queueing on the executing worker's deque.  An optional
:class:`~repro.faults.policies.CircuitBreaker` guards dispatch: while
open, tasks are rejected without running (admission control under
persistent failure).  Every decision emits :mod:`repro.telemetry`
spans/metrics.
"""

from __future__ import annotations

import bisect
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.config import resolve_sched_mode, resolve_timeout_s
from repro.faults import hooks as faults
from repro.faults.injector import InjectedCrash, TransientFault
from repro.faults.policies import CircuitBreaker, CircuitOpenError
from repro.sched.core import (
    Call,
    CancelledError,
    SchedError,
    SchedEvent,
    StealOrder,
    Task,
    TaskHandle,
    TaskState,
    WorkerDeque,
)
from repro.sched.queue import JobQueue
from repro.sched.spec import SpecEngine, SpecPolicy, _clear_context, _set_context
from repro.telemetry import instrument as telemetry

__all__ = ["SchedStats", "WorkStealingExecutor", "STEAL_PROBE_BUCKETS"]

#: Default ceiling on one drain (same override rule as the runtimes).
DRAIN_TIMEOUT_S = 60.0

#: Bucket upper bounds for the per-worker steal-contention histogram:
#: how many victims a thief probed before a steal landed.  1 means the
#: first victim had work; higher buckets mean other thieves drained the
#: deques first — the collision signature the threaded mode exhibits.
STEAL_PROBE_BUCKETS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class SchedStats:
    """Aggregate counters of one executor's lifetime."""

    n_workers: int
    seed: int
    deterministic: bool
    mode: str = "threaded"
    submitted: int = 0
    executed: int = 0
    failed: int = 0
    cancelled: int = 0
    retries: int = 0
    rejected: int = 0
    local_pops: int = 0
    queue_takes: int = 0
    steals: int = 0
    mp_shipped: int = 0   # Call bodies executed in a pool child
    mp_inline: int = 0    # closures a mode="mp" executor ran in-parent
    backups_launched: int = 0    # speculative copies of stragglers
    backups_won: int = 0         # backups that committed first
    backup_time_saved_s: float = 0.0   # commit-to-loser-completion, summed
    steps: int = 0
    high_water: int = 0

    @property
    def steal_rate(self) -> float:
        """Fraction of task acquisitions that crossed worker deques."""
        acquisitions = self.local_pops + self.queue_takes + self.steals
        return self.steals / acquisitions if acquisitions else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "n_workers": self.n_workers,
            "seed": self.seed,
            "deterministic": self.deterministic,
            "mode": self.mode,
            "mp_shipped": self.mp_shipped,
            "mp_inline": self.mp_inline,
            "submitted": self.submitted,
            "executed": self.executed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "retries": self.retries,
            "rejected": self.rejected,
            "local_pops": self.local_pops,
            "queue_takes": self.queue_takes,
            "steals": self.steals,
            "steal_rate": round(self.steal_rate, 6),
            "backups_launched": self.backups_launched,
            "backups_won": self.backups_won,
            "backup_time_saved_s": round(self.backup_time_saved_s, 6),
            "steps": self.steps,
            "high_water": self.high_water,
        }


class WorkStealingExecutor:
    """Deterministic (or threaded) work-stealing task executor."""

    def __init__(
        self,
        n_workers: int = 4,
        seed: int = 0,
        deterministic: bool = True,
        max_attempts: int = 3,
        max_pending: int | None = None,
        breaker: CircuitBreaker | None = None,
        mode: str = "threaded",
        spec: SpecPolicy | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.n_workers = n_workers
        self.seed = seed
        self.deterministic = deterministic
        self.max_attempts = max_attempts
        self.breaker = breaker
        self.spec_engine: SpecEngine | None = (
            SpecEngine(spec) if spec is not None else None
        )
        self.mode = resolve_sched_mode(mode)
        self._pool = None            # created lazily at first drain
        self.queue = JobQueue(max_pending=max_pending)
        self.steal_order = StealOrder(seed, n_workers)
        # Seeded placement of admitted tasks onto deques.  A string seed
        # (SHA-512 path in CPython) keeps the deal independent of
        # PYTHONHASHSEED; drawing per task makes placement — and hence
        # the whole steal schedule — a function of the scheduler seed.
        self._deal_rng = random.Random(f"{seed}:deal")
        self.events: list[SchedEvent] = []
        self._deques = [WorkerDeque(w) for w in range(n_workers)]
        self._lock = threading.RLock()
        self._local = threading.local()
        self._next_task_id = 0
        self._handles: dict[int, TaskHandle] = {}
        self._outstanding = 0        # submitted but not finished
        self._pending = 0            # admitted but not yet acquired
        self._step = 0
        self._steal_attempts = [0] * n_workers
        self._worker_seq = [0] * n_workers
        # Steal-contention accounting: per-worker histogram of probes
        # per successful steal (buckets per STEAL_PROBE_BUCKETS plus an
        # overflow bin) and a count of dry sweeps (every victim empty).
        self._probe_hist = [
            [0] * (len(STEAL_PROBE_BUCKETS) + 1) for _ in range(n_workers)
        ]
        self._dry_sweeps = [0] * n_workers
        self._counts = {
            "submitted": 0, "executed": 0, "failed": 0, "cancelled": 0,
            "retries": 0, "rejected": 0, "local_pops": 0, "queue_takes": 0,
            "steals": 0, "mp_shipped": 0, "mp_inline": 0,
        }
        self._high_water = 0
        # Long-lived serving (start()/shutdown()): worker threads that
        # outlive any single drain, for the repro.serve job service.
        self._serve_threads: list[threading.Thread] = []
        self._stop_serving = threading.Event()

    # -- events --------------------------------------------------------------

    def _event_step(self, worker: int) -> int:
        if self.deterministic:
            return self._step
        if 0 <= worker < self.n_workers:
            self._worker_seq[worker] += 1
            return self._worker_seq[worker]
        return 0

    def _record(self, worker: int, kind: str, task_id: int, detail: str = "") -> None:
        """Append one event to the log.  A serving executor keeps none:
        its log would grow with every job and nothing reads it."""
        with self._lock:
            if self._serve_threads:
                return
            self.events.append(
                SchedEvent(self._event_step(worker), worker, kind, task_id, detail)
            )

    def log_lines(self) -> list[str]:
        """The canonical event log.

        Deterministic mode: in execution order — a pure function of
        (workload, workers, seed), byte-identical across processes and
        hash seeds.  Threaded mode: sorted (arrival order is racy; the
        sorted multiset of decisions is still comparable run to run).
        """
        with self._lock:
            lines = [event.canonical() for event in self.events]
        return lines if self.deterministic else sorted(lines)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        fn: Callable[[], Any],
        name: str = "task",
        priority: int = 0,
    ) -> TaskHandle:
        """Admit one task; see :meth:`submit_batch` for semantics."""
        return self.submit_batch([fn], name=name, priority=priority)[0]

    def submit_batch(
        self,
        fns: Sequence[Callable[[], Any]],
        name: str = "task",
        priority: int = 0,
    ) -> list[TaskHandle]:
        """Admit a batch atomically (all or :class:`BackpressureError`).

        Submissions from *inside* a running task bypass the admission
        queue onto the submitting worker's own deque — nested work is
        already admitted, and bouncing it through backpressure could
        deadlock a fork-join decomposition against its own children.
        """
        worker = getattr(self._local, "worker", None)
        with self._lock:
            handles: list[TaskHandle] = []
            tasks: list[Task] = []
            for i, fn in enumerate(fns):
                task = Task(
                    task_id=self._next_task_id,
                    fn=fn,
                    name=name if len(fns) == 1 else f"{name}[{i}]",
                    priority=priority,
                )
                self._next_task_id += 1
                tasks.append(task)
                handles.append(TaskHandle(_executor=self, task=task))
            if worker is None:
                self.queue.push_batch(tasks)      # may raise BackpressureError
            else:
                for task in tasks:
                    self._deques[worker].push(task)
            for handle in handles:
                self._handles[handle.task_id] = handle
            self._outstanding += len(tasks)
            self._pending += len(tasks)
            self._high_water = max(self._high_water, self._pending)
            self._counts["submitted"] += len(tasks)
            origin = -1 if worker is None else worker
            for task in tasks:
                self._record(origin, "submit", task.task_id)
        if telemetry.enabled():
            telemetry.inc("sched.tasks.submitted", len(tasks))
            telemetry.counter_event("sched.queue.depth", self._pending)
        return handles

    def pending(self) -> int:
        with self._lock:
            return self._pending

    # -- cancellation --------------------------------------------------------

    def _cancel(self, handle: TaskHandle) -> bool:
        task = handle.task
        with self._lock:
            if task.taken or task.state is not TaskState.PENDING:
                return task.state is TaskState.CANCELLED
            task.taken = True
            task.state = TaskState.CANCELLED
            self._outstanding -= 1
            self._pending -= 1
            self._counts["cancelled"] += 1
            self._record(-1, "cancel", task.task_id)
        handle._error = CancelledError(
            f"task {task.task_id} ({task.name}) was cancelled"
        )
        handle._done.set()
        telemetry.instant("sched.task.cancelled", task=task.task_id)
        telemetry.inc("sched.tasks.cancelled")
        return True

    # -- speculation ---------------------------------------------------------

    def speculate(self, policy, clock=None, listener=None) -> None:
        """Install (``SpecPolicy``) or remove (``None``) straggler
        speculation.  ``clock`` is the injectable clock ages are measured
        on; ``listener(event, primary_task)`` observes backup launches
        and wins (how :mod:`repro.mapreduce.stragglers` keeps its
        ``mr.backup.*`` telemetry names).

        Speculation never changes results — first-completion-wins
        resolves the primary's handle with whichever copy commits first
        — and never changes the stepping event log: the stepping loop
        runs every acquired task to completion within its round, so no
        task is in flight when a worker goes idle and the primary is
        always the canonical winner (zero backups launch).
        """
        with self._lock:
            self.spec_engine = (
                SpecEngine(policy, clock=clock, listener=listener)
                if policy is not None else None
            )

    def _maybe_backup(self, worker: int) -> bool:
        """An idle worker probes for a straggling primary and, if one is
        overdue, launches a backup copy onto its own deque.  Threaded and
        serve modes only — the stepping loop never idles with work in
        flight, which is the canonical-winner rule."""
        engine = self.spec_engine
        if engine is None or self.deterministic:
            return False
        with self._lock:
            now = engine.now()
            primary = engine.pick_straggler(now)
            if primary is None:
                return False
            clone = Task(
                task_id=self._next_task_id, fn=primary.fn,
                name=f"{primary.name}~backup", priority=primary.priority,
                backup_of=primary.task_id,
            )
            self._next_task_id += 1
            engine.backup_launched(primary, clone)
            self._deques[worker].push(clone)
            self._pending += 1
            self._high_water = max(self._high_water, self._pending)
            self._record(worker, "backup", clone.task_id,
                         f"of=t{primary.task_id}")
        telemetry.instant("sched.spec.backup", task=primary.task_id,
                          backup=clone.task_id, worker=worker)
        telemetry.inc("sched.spec.backups_launched")
        if engine.listener is not None:
            engine.listener("launched", primary)
        return True

    # -- acquisition ---------------------------------------------------------

    def _deal_locked(self) -> None:
        """Move every queued task onto a seeded-random worker deque.

        The queue yields priority-descending; dealing in *ascending*
        order leaves the highest priority bottom-most on its deque, so
        owners (LIFO) run priorities first while thieves (FIFO) take the
        back of the line.
        """
        batch: list[Task] = []
        while (task := self.queue.pop()) is not None:
            batch.append(task)
        for task in reversed(batch):
            worker = self._deal_rng.randrange(self.n_workers)
            task.taken = False            # re-armed now that it has a home
            self._deques[worker].push(task)
            self._record(worker, "deal", task.task_id)

    def _acquire_locked(self, worker: int) -> tuple[Task, str, str] | None:
        """One acquisition attempt for ``worker`` (caller holds the lock):
        own deque, then the admission queue, then a seeded steal sweep."""
        task = self._deques[worker].pop_bottom()
        if task is not None:
            task.taken = True
            self._counts["local_pops"] += 1
            return task, "pop", ""
        task = self.queue.pop()                   # marks taken itself
        if task is not None:
            self._counts["queue_takes"] += 1
            return task, "queue", ""
        attempt = self._steal_attempts[worker]
        self._steal_attempts[worker] += 1
        probes = 0
        for victim in self.steal_order.victims(worker, attempt):
            probes += 1
            task = self._deques[victim].steal_top()
            if task is not None:
                task.taken = True
                self._counts["steals"] += 1
                self._observe_probes(worker, probes)
                return task, "steal", f"from=w{victim}"
        if probes:
            self._dry_sweeps[worker] += 1
        return None

    def _observe_probes(self, worker: int, probes: int) -> None:
        """Record one successful steal's probe count (caller holds lock)."""
        index = bisect.bisect_left(STEAL_PROBE_BUCKETS, float(probes))
        self._probe_hist[worker][index] += 1
        telemetry.observe(f"sched.steal.probes.w{worker}", probes,
                          boundaries=STEAL_PROBE_BUCKETS)

    def steal_contention(self) -> dict[int, dict[str, Any]]:
        """Per-worker steal-contention histogram.

        ``buckets`` counts successful steals by how many victims the
        thief probed first (upper bounds :data:`STEAL_PROBE_BUCKETS`,
        last bin is overflow); ``dry_sweeps`` counts full sweeps that
        found every victim empty.  In threaded mode this is where
        thieves collide: a healthy run steals from the first victim
        probed, a contended run climbs into the higher buckets.
        """
        with self._lock:
            return {
                worker: {
                    "boundaries": STEAL_PROBE_BUCKETS,
                    "buckets": tuple(self._probe_hist[worker]),
                    "steals": sum(self._probe_hist[worker]),
                    "dry_sweeps": self._dry_sweeps[worker],
                }
                for worker in range(self.n_workers)
            }

    # -- execution -----------------------------------------------------------

    def _run(self, task: Task, worker: int, kind: str, detail: str) -> None:
        """Execute one acquired task on ``worker`` (outside the lock)."""
        self._record(worker, kind, task.task_id, detail)
        if kind == "steal":
            telemetry.instant("sched.steal", thief=worker, task=task.task_id,
                              victim=detail)
            telemetry.inc("sched.steals")
        engine = self.spec_engine
        is_backup = task.backup_of is not None
        family = None
        with self._lock:
            self._pending -= 1
            attempt = task.attempts
            task.attempts += 1
            task.state = TaskState.RUNNING
            if engine is not None:
                family = engine.task_started(task, engine.now())
        if self.breaker is not None and not self.breaker.allow():
            with self._lock:
                self._counts["rejected"] += 1
            self._record(worker, "reject", task.task_id, f"a{attempt}")
            telemetry.instant("sched.task.rejected", task=task.task_id,
                              worker=worker)
            telemetry.inc("sched.tasks.rejected")
            if is_backup:
                # A rejected backup is dropped, never the primary's fate:
                # the primary stays the only live copy of the family.
                with self._lock:
                    engine.on_complete(task, engine.now(), failed=True)
                return
            self._complete(task, worker, attempt, error=CircuitOpenError(
                f"task {task.task_id} ({task.name}) rejected: breaker open"
            ))
            return
        previous_worker = getattr(self._local, "worker", None)
        self._local.worker = worker
        if engine is not None:
            _set_context(family, is_backup)
        try:
            faults.fire("sched.task", key=f"t{task.task_id}",
                        task=task.task_id, worker=worker, attempt=attempt)
            with telemetry.span("sched.task", category="task",
                                task=task.task_id, task_name=task.name,
                                worker=worker, attempt=attempt):
                value = self._execute_body(task, worker)
        except (InjectedCrash, TransientFault) as exc:
            if self.breaker is not None:
                self.breaker.record_failure()
            if not is_backup and attempt + 1 < self.max_attempts:
                with self._lock:
                    task.taken = False
                    task.state = TaskState.PENDING
                    self._deques[worker].push(task)
                    self._pending += 1
                    self._counts["retries"] += 1
                    if engine is not None:
                        engine.task_retried(task)
                self._record(worker, "retry", task.task_id, f"a{attempt}")
                telemetry.instant("sched.task.retry", task=task.task_id,
                                  attempt=attempt)
                telemetry.inc("sched.retries")
            else:
                self._complete(task, worker, attempt, error=SchedError(
                    f"task {task.task_id} ({task.name}) failed after "
                    f"{attempt + 1} attempt(s)"
                ), cause=exc)
        except BaseException as exc:  # noqa: BLE001 - stored on the handle
            if self.breaker is not None:
                self.breaker.record_failure()
            self._complete(task, worker, attempt, error=exc)
        else:
            if self.breaker is not None:
                self.breaker.record_success()
            self._complete(task, worker, attempt, value=value)
        finally:
            self._local.worker = previous_worker
            if engine is not None:
                _clear_context()

    def _complete(
        self,
        task: Task,
        worker: int,
        attempt: int,
        value: Any = None,
        error: BaseException | None = None,
        cause: BaseException | None = None,
    ) -> None:
        """Resolve one finished copy of a task.

        Without speculation this is the classic done/fail path.  With a
        :class:`SpecEngine` installed it applies first-completion-wins:
        the first copy of a family to complete commits the primary's
        handle; the loser is recorded (``lose``) and only counted, and a
        backup still pending when its primary wins is cancelled in the
        same locked section so it can never start afterwards.
        """
        engine = self.spec_engine
        is_backup = task.backup_of is not None
        if error is not None and cause is not None:
            error.__cause__ = cause
        if engine is None:
            if error is not None:
                self._record(worker, "fail", task.task_id, f"a{attempt}")
                self._finish(task, worker, error=error)
            else:
                self._record(worker, "done", task.task_id, f"a{attempt}")
                self._finish(task, worker, value=value)
            return
        suffix = f"|of=t{task.backup_of}" if is_backup else ""
        cancelled_backup: Task | None = None
        with self._lock:
            outcome, family = engine.on_complete(
                task, engine.now(), failed=error is not None
            )
            if outcome == "defer":
                family.primary_error = error
            if outcome == "commit" and not is_backup:
                b = family.backup
                if (b is not None and not b.taken
                        and b.state is TaskState.PENDING):
                    b.taken = True
                    b.state = TaskState.CANCELLED
                    self._pending -= 1
                    engine.backup_cancelled(family)
                    cancelled_backup = b
            if outcome == "commit" and is_backup:
                # A primary re-queued by an injected fault may still be
                # pending when its backup commits; cancel it so a later
                # drain never re-runs a superseded copy.
                p = family.primary
                if not p.taken and p.state is TaskState.PENDING:
                    p.taken = True
                    self._pending -= 1
                    engine.loser_cancelled(family)
                    cancelled_backup = p
        if outcome == "lose":
            self._record(worker, "lose", task.task_id,
                         f"a{attempt}|winner={family.winner}{suffix}")
            telemetry.instant("sched.spec.lose", task=task.task_id,
                              winner=family.winner)
            telemetry.inc("sched.spec.losses")
            return
        if outcome == "defer":
            # The primary failed but its backup is still in flight and
            # may yet produce the value; hold the handle open.
            self._record(worker, "fail", task.task_id,
                         f"a{attempt}|deferred")
            return
        if outcome == "backup-failed":
            self._record(worker, "fail", task.task_id, f"a{attempt}{suffix}")
            return
        if outcome == "commit-error":
            # Both copies failed; the primary's stored error is final.
            self._record(worker, "fail", task.task_id, f"a{attempt}{suffix}")
            self._finish(family.primary, worker, error=family.primary_error)
            return
        # "plain" or "commit": this copy is the family's result.
        if error is not None:
            self._record(worker, "fail", task.task_id, f"a{attempt}{suffix}")
            self._finish(family.primary, worker, error=error)
            return
        self._record(worker, "done", task.task_id, f"a{attempt}{suffix}")
        self._finish(family.primary, worker, value=value)
        if cancelled_backup is not None:
            self._record(worker, "backup-cancel", cancelled_backup.task_id,
                         f"of=t{task.task_id}")
            telemetry.inc("sched.spec.backups_cancelled")
        if is_backup:
            telemetry.instant("sched.spec.win", task=task.backup_of,
                              backup=task.task_id, worker=worker)
            telemetry.inc("sched.spec.backups_won")
            if engine.listener is not None:
                engine.listener("won", family.primary)

    def _execute_body(self, task: Task, worker: int) -> Any:
        """Run the task body where ``mode`` dictates.

        Only :class:`Call` payloads can cross the process boundary; a
        plain closure under ``mode="mp"`` runs inline in the parent
        (counted as ``mp_inline``) so every existing workload still
        works — it just doesn't escape the GIL.  Faults and telemetry
        fired above stay parent-side either way, which is what keeps
        chaos replay and the event log mode-independent.
        """
        if self._pool is not None and isinstance(task.fn, Call):
            with self._lock:
                self._counts["mp_shipped"] += 1
            return self._pool.run(worker, task.fn)
        if self.mode == "mp":
            with self._lock:
                self._counts["mp_inline"] += 1
        return task.fn()

    def _ensure_pool(self) -> None:
        """Create the process pool (mode="mp" only), sized one child per
        worker so the task→process mapping is fixed.  Called before any
        drain thread starts, which is what makes ``fork`` safe."""
        if self.mode != "mp" or self._pool is not None:
            return
        from repro.procpool import ProcessPool

        self._pool = ProcessPool(
            self.n_workers,
            timeout_s=resolve_timeout_s(None, DRAIN_TIMEOUT_S),
        )

    def close(self) -> None:
        """Release the process pool, if one was created.  Idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "WorkStealingExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _finish(
        self,
        task: Task,
        worker: int,
        value: Any = None,
        error: BaseException | None = None,
        cause: BaseException | None = None,
    ) -> None:
        if error is not None and cause is not None:
            error.__cause__ = cause
        with self._lock:
            task.state = TaskState.FAILED if error is not None else TaskState.DONE
            self._outstanding -= 1
            self._counts["failed" if error is not None else "executed"] += 1
            handle = self._handles.pop(task.task_id, None)
        if handle is not None:
            handle._value = value
            handle._error = error
            handle.worker = worker
            handle._done.set()
        telemetry.inc("sched.tasks.executed")

    # -- inline help (for TaskHandle.result) ---------------------------------

    def _help(self, handle: TaskHandle, timeout: float | None) -> None:
        task = handle.task
        with self._lock:
            claim = not task.taken and task.state is TaskState.PENDING
            if claim:
                task.taken = True
        if claim:
            worker = getattr(self._local, "worker", None)
            self._run(task, worker if worker is not None else 0,
                      "pop", "inline")
            return
        handle._done.wait(resolve_timeout_s(timeout, DRAIN_TIMEOUT_S))

    # -- draining ------------------------------------------------------------

    def drain(self, timeout: float | None = None) -> None:
        """Run until every submitted task has finished."""
        if self._serve_threads:
            raise SchedError(
                "executor is serving; submissions run as they arrive "
                "(use shutdown() to stop, not drain())"
            )
        budget = resolve_timeout_s(timeout, DRAIN_TIMEOUT_S)
        self._ensure_pool()
        with telemetry.span("sched.drain", category="sched",
                            n_workers=self.n_workers, seed=self.seed,
                            deterministic=self.deterministic):
            if self.deterministic:
                self._drain_stepping(budget)
            else:
                self._drain_threaded(budget)
        if telemetry.enabled():
            telemetry.counter_event("sched.queue.depth", self._pending)

    def _drain_stepping(self, budget: float) -> None:
        """Single-threaded deterministic rounds: worker 0..W-1 each run at
        most one task per round.  Work exists whenever tasks are pending,
        so an empty round with outstanding work is an invariant breach."""
        started = time.monotonic()
        while True:
            with self._lock:
                if self._outstanding == 0:
                    return
            if time.monotonic() - started > budget:
                raise SchedError(f"drain exceeded {budget}s")
            progressed = False
            with self._lock:
                self._deal_locked()
            for worker in range(self.n_workers):
                with self._lock:
                    acquired = self._acquire_locked(worker)
                if acquired is not None:
                    progressed = True
                    self._run(acquired[0], worker, acquired[1], acquired[2])
            with self._lock:
                self._step += 1
                if not progressed and self._outstanding > 0:
                    raise SchedError(
                        f"scheduler stalled: {self._outstanding} task(s) "
                        f"outstanding but none acquirable"
                    )

    def _drain_threaded(self, budget: float) -> None:
        with self._lock:
            self._deal_locked()

        def loop(worker: int) -> None:
            telemetry.ensure_thread("sched", f"sched-worker-{worker}")
            while True:
                with self._lock:
                    if self._outstanding == 0:
                        return
                    acquired = self._acquire_locked(worker)
                if acquired is None:
                    if self._maybe_backup(worker):
                        continue
                    time.sleep(0.0002)
                    continue
                self._run(acquired[0], worker, acquired[1], acquired[2])

        threads = [
            threading.Thread(target=loop, args=(w,), name=f"sched-worker-{w}")
            for w in range(self.n_workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=budget)
            if t.is_alive():
                raise SchedError(f"{t.name} did not finish within {budget}s")

    # -- long-lived serving ---------------------------------------------------

    def start(self) -> None:
        """Begin serving: worker threads that run tasks as they arrive.

        Unlike :meth:`drain` — which exits as soon as the current batch
        finishes — serving keeps the workers alive until
        :meth:`shutdown`, which is what a long-lived job service needs:
        submissions trickle in from many clients and must start without
        a caller standing in ``drain``.  Requires ``deterministic=False``
        (a stepping loop has no meaning for an open-ended task stream).
        """
        if self.deterministic:
            raise SchedError("serving requires deterministic=False")
        if self.mode == "mp":
            raise SchedError(
                "serving requires mode='threaded': serve jobs are "
                "closures, which cannot cross the process boundary"
            )
        if self._serve_threads:
            raise SchedError("executor is already serving")
        self._stop_serving.clear()
        for worker in range(self.n_workers):
            thread = threading.Thread(
                target=self._serve_loop, args=(worker,),
                name=f"sched-serve-{worker}", daemon=True,
            )
            self._serve_threads.append(thread)
            thread.start()

    def serving(self) -> bool:
        return bool(self._serve_threads)

    def _serve_loop(self, worker: int) -> None:
        telemetry.ensure_thread("sched", f"sched-serve-{worker}")
        while True:
            with self._lock:
                acquired = self._acquire_locked(worker)
            if acquired is None:
                if self._stop_serving.is_set():
                    return
                if self._maybe_backup(worker):
                    continue
                time.sleep(0.001)
                continue
            self._run(acquired[0], worker, acquired[1], acquired[2])

    def shutdown(
        self, cancel_pending: bool = True, timeout: float | None = None
    ) -> int:
        """Stop serving; returns how many queued tasks were cancelled.

        In-flight tasks always finish (workers complete their current
        task before exiting).  With ``cancel_pending`` (the graceful-
        shutdown default) queued-but-unstarted tasks are cancelled — each
        handle resolves with :class:`CancelledError` — so the drain is
        bounded by the work already running; with ``cancel_pending=False``
        the workers first empty the backlog.  Idempotent; raises
        :class:`SchedError` if a worker fails to stop within the budget.
        """
        if not self._serve_threads:
            return 0
        cancelled = 0
        if cancel_pending:
            with self._lock:
                pending = [
                    handle for handle in self._handles.values()
                    if not handle.task.taken
                    and handle.task.state is TaskState.PENDING
                ]
            for handle in pending:
                if self._cancel(handle):
                    cancelled += 1
        self._stop_serving.set()
        budget = resolve_timeout_s(timeout, DRAIN_TIMEOUT_S)
        deadline = time.monotonic() + budget
        for thread in self._serve_threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                raise SchedError(
                    f"{thread.name} did not stop within {budget}s"
                )
        self._serve_threads = []
        return cancelled

    def map(
        self,
        fns: Sequence[Callable[[], Any]],
        name: str = "task",
        priority: int = 0,
        timeout: float | None = None,
    ) -> list[Any]:
        """Batch-submit, drain, and return results in submission order.

        The dispatch-layer entry point the runtimes use (MapReduce phases,
        drug-design sweeps): one call, deterministic result order."""
        handles = self.submit_batch(fns, name=name, priority=priority)
        self.drain(timeout=timeout)
        return [handle.result(timeout=timeout) for handle in handles]

    def map_chunked(
        self,
        items: Sequence[Any],
        batch_fn: Callable[[list[Any]], Sequence[Any]],
        chunk_size: int,
        name: str = "chunk",
        priority: int = 0,
        timeout: float | None = None,
    ) -> list[Any]:
        """Batched dispatch: one task per ``chunk_size`` items.

        ``batch_fn(chunk)`` must return one result per item of the
        chunk; the flattened per-item results come back in submission
        order.  This is the amortization lever for fine-grained work:
        the scheduler's per-task bookkeeping (admission, deal, events,
        handle) is paid once per chunk while ``batch_fn`` runs a
        vectorized kernel over the whole chunk — the shape
        ``solve_sched(..., chunk=k)`` dispatches.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        chunks = [
            list(items[i : i + chunk_size])
            for i in range(0, len(items), chunk_size)
        ]
        results = self.map(
            [lambda c=c: list(batch_fn(c)) for c in chunks],
            name=name, priority=priority, timeout=timeout,
        )
        flat: list[Any] = []
        for chunk, values in zip(chunks, results):
            if len(values) != len(chunk):
                raise SchedError(
                    f"batch_fn returned {len(values)} results for a chunk "
                    f"of {len(chunk)} items"
                )
            flat.extend(values)
        return flat

    # -- reporting -----------------------------------------------------------

    def stats(self) -> SchedStats:
        with self._lock:
            engine = self.spec_engine
            return SchedStats(
                n_workers=self.n_workers,
                seed=self.seed,
                deterministic=self.deterministic,
                mode=self.mode,
                steps=self._step,
                high_water=self._high_water,
                backups_launched=engine.backups_launched if engine else 0,
                backups_won=engine.backups_won if engine else 0,
                backup_time_saved_s=engine.time_saved_s if engine else 0.0,
                **self._counts,
            )
