"""The job service core: admission, execution, status, graceful drain.

:class:`JobService` is the transport-independent heart of
``python -m repro serve`` — the HTTP layer in :mod:`repro.serve.http`
is a thin translation onto it, and the tests drive it directly.  It
composes the substrate built in earlier PRs as production components:

- **admission control** — jobs are tasks on a
  :class:`~repro.sched.executor.WorkStealingExecutor` in long-lived
  serving mode whose bounded :class:`~repro.sched.queue.JobQueue`
  refuses work past ``backlog`` with
  :class:`~repro.sched.core.BackpressureError` (HTTP 429);
- **overload shedding** — a
  :class:`~repro.faults.policies.CircuitBreaker` fed by job outcomes
  rejects new *executions* while open with
  :class:`~repro.faults.policies.CircuitOpenError` (HTTP 503).  Cached
  results are still served while shedding: a hit costs no execution,
  so refusing it would protect nothing;
- **request memoisation** — results are content-addressed in a
  :class:`~repro.sched.cache.ResultCache` under the fingerprint of the
  canonicalised request ``(mode, workload, params)``; an identical
  request completes instantly as a ``cached`` job without re-execution;
- **observability** — every transition bumps ``serve.*`` counters, the
  queue-depth gauge tracks the backlog, and per-job latency lands in a
  histogram; the service's own session keeps no trace (it would grow
  with every job), so ``serve.job`` spans are recorded only under a
  caller's tracing session;
- **durable callbacks** — a submission may carry ``on_complete``: a
  follow-up job spec armed in the durable
  :class:`~repro.pipeline.store.JobStore` and enqueued exactly once
  when the parent reaches a terminal state.  The armed spec lives in
  SQLite (the DESIGN rule: durable state goes through the pipeline
  store), so follow-ups survive a service restart; in-memory queues
  stay ephemeral.  Every terminal transition is also recorded durably
  (:meth:`~repro.pipeline.store.JobStore.mark_terminal`), so a
  restarted service can tell "armed, parent still running" from
  "armed, parent already finished — the fire was lost" and resubmits
  the latter on construction;
- **atomic batches** — :meth:`submit_batch` admits a list of specs all
  or nothing, riding :meth:`WorkStealingExecutor.submit_batch` /
  :meth:`JobQueue.push_batch`: one overflowing batch is refused whole
  (HTTP 429 with zero admissions), never half-admitted.

Workloads are resolved **only** through the unified
:mod:`repro.workloads` registry (the DESIGN rule): the service can run
exactly what the CLIs can, nothing else.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro import telemetry, workloads
from repro.faults.policies import CircuitBreaker, CircuitOpenError
from repro.pipeline.store import JobStore
from repro.sched.cache import ResultCache, fingerprint
from repro.sched.core import BackpressureError
from repro.sched.executor import WorkStealingExecutor
from repro.serve.events import EventLog
from repro.telemetry import instrument

__all__ = ["Job", "JobService", "TERMINAL_STATES"]

#: States a job never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

_MISSING = object()


@dataclass
class Job:
    """One client request's lifecycle: queued → running → terminal."""

    job_id: str
    mode: str
    workload: str
    params: dict[str, int]
    priority: int
    key: str                                  # content-address of the request
    state: str = "queued"
    cached: bool = False
    created_s: float = field(default_factory=time.time)
    started_s: float | None = None
    finished_s: float | None = None
    result: dict[str, Any] | None = None
    error: str | None = None
    events: EventLog = field(default_factory=EventLog)
    handle: Any = None                        # sched TaskHandle (None if cached)
    follow_ups: list[str] = field(default_factory=list)  # on_complete job ids

    def _transition(self, state: str, **extra: Any) -> None:
        terminal = state in TERMINAL_STATES
        if terminal:
            # Before the state: a reader on another thread (``describe``
            # for ``GET /jobs/<id>``) that sees a terminal state must also
            # see its finish time.
            self.finished_s = time.time()
        self.state = state
        self.events.emit("state", state=state, **extra)
        if terminal:
            self.events.close()

    def describe(self) -> dict[str, Any]:
        """JSON-safe status view (what ``GET /jobs/<id>`` returns)."""
        return {
            "id": self.job_id,
            "mode": self.mode,
            "workload": self.workload,
            "params": dict(self.params),
            "priority": self.priority,
            "key": self.key,
            "state": self.state,
            "cached": self.cached,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "error": self.error,
            "events": len(self.events),
            "follow_ups": list(self.follow_ups),
        }


class JobService:
    """Long-lived workload execution service over the scheduler."""

    def __init__(
        self,
        workers: int = 4,
        backlog: int = 64,
        seed: int = 0,
        cache: ResultCache | None = None,
        cache_dir: str | None = None,
        breaker: CircuitBreaker | None = None,
        manage_telemetry: bool = True,
        store: JobStore | None = None,
        store_path: str | None = None,
    ) -> None:
        if backlog < 1:
            raise ValueError(f"backlog must be >= 1, got {backlog}")
        self.backlog = backlog
        # The durable side-channel: on_complete callback specs are armed
        # here so they survive a restart when store_path names a file.
        self.store = store if store is not None \
            else JobStore(store_path or ":memory:")
        self._owns_store = store is None
        self.executor = WorkStealingExecutor(
            n_workers=workers, seed=seed, deterministic=False,
            max_pending=backlog,
        )
        self.cache = cache if cache is not None else ResultCache(directory=cache_dir)
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=5, reset_timeout_s=1.0, name="serve"
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._next_id = 0
        self._closed = False
        # One observable metrics surface for /metrics: collect metrics
        # for the service's lifetime unless the caller runs a session.
        self._session = None
        if manage_telemetry and not telemetry.is_enabled():
            self._session = telemetry.enable_metrics()
        self.executor.start()
        self._resubmit_stranded_callbacks()

    # -- submission ----------------------------------------------------------

    def _validate_follow_up(self, spec: Any) -> dict[str, Any]:
        """Normalise an ``on_complete`` spec (recursively) or raise the
        same errors :meth:`submit` would — *before* the parent admits."""
        if not isinstance(spec, Mapping) or "workload" not in spec:
            raise ValueError(
                'on_complete must be an object with a "workload"'
            )
        mode = str(spec.get("mode", "sched"))
        entry = workloads.get(str(spec["workload"]))    # KeyError → 404
        workloads.runner_for(entry, mode)               # WorkloadModeError
        clean = workloads.validate_params(mode, spec.get("params") or {})
        out: dict[str, Any] = {
            "mode": mode, "workload": entry.name, "params": clean,
            "priority": int(spec.get("priority", 0)),
        }
        if spec.get("on_complete") is not None:
            out["on_complete"] = self._validate_follow_up(spec["on_complete"])
        return out

    def submit(
        self,
        mode: str,
        workload: str,
        params: Mapping[str, Any] | None = None,
        priority: int = 0,
        on_complete: Mapping[str, Any] | None = None,
    ) -> Job:
        """Admit one job request; returns the (possibly already done) job.

        ``on_complete`` is a follow-up job spec (``{"workload": ...,
        "mode": ..., "params": ..., "on_complete": ...}``, chainable)
        armed durably in the pipeline store and submitted exactly once
        when this job reaches a terminal state.

        Raises ``KeyError`` for an unknown workload, ``ValueError`` /
        :class:`~repro.workloads.WorkloadModeError` for a bad mode or
        parameters (HTTP 400/404), :class:`CircuitOpenError` while
        shedding (503), and
        :class:`~repro.sched.core.BackpressureError` when the backlog is
        full (429).
        """
        if self._closed:
            raise RuntimeError("service is shut down")
        entry = workloads.get(workload)
        workloads.runner_for(entry, mode)       # raises WorkloadModeError
        clean = workloads.validate_params(mode, params)
        follow = (self._validate_follow_up(on_complete)
                  if on_complete is not None else None)
        key = fingerprint("serve", mode, entry.name, clean)
        with self._lock:
            self._next_id += 1
            job_id = f"j{self._next_id}"
        job = Job(job_id=job_id, mode=mode, workload=entry.name,
                  params=clean, priority=priority, key=key)
        job.events.emit("state", state="queued")
        instrument.inc("serve.jobs.submitted")

        cached = self.cache.get(key, _MISSING)
        if cached is not _MISSING:
            job.cached = True
            job.result = cached
            job.started_s = job.finished_s = time.time()
            job._transition("done", cached=True)
            self._mark_terminal(job)
            instrument.inc("serve.jobs.cached")
            with self._lock:
                self._jobs[job_id] = job
            if follow is not None:
                # Mark first, then arm, then fire: if the process dies
                # between arm and fire, the completions row already says
                # the parent is terminal, so a restart resubmits.
                self.store.add_callback(job.key, follow)
                self._fire_callbacks(job)
            return job

        if not self.breaker.allow():
            instrument.inc("serve.rejected.breaker")
            raise CircuitOpenError(
                "service is shedding load (circuit breaker open)"
            )
        try:
            job.handle = self.executor.submit(
                lambda: self._execute(job),
                name=f"{mode}:{entry.name}", priority=priority,
            )
        except BackpressureError:
            instrument.inc("serve.rejected.backpressure")
            raise
        with self._lock:
            self._jobs[job_id] = job
        if follow is not None:
            # Arm after admission (a refused job must not leave a stray
            # armed row), then close the race with an already-finished
            # job: claim_callbacks is exactly-once, so if _execute beat
            # us to the claim this second fire finds nothing.
            self.store.add_callback(job.key, follow)
            if job.state in TERMINAL_STATES:
                self._fire_callbacks(job)
        instrument.gauge("serve.queue.depth", self.executor.pending())
        return job

    def submit_batch(
        self,
        specs: Sequence[Mapping[str, Any]],
        priority: int = 0,
    ) -> list[Job]:
        """Admit a list of job specs atomically: all, or none.

        Every spec is resolved and validated before anything is
        admitted, so one bad spec refuses the whole batch (400/404 with
        zero admissions).  Cache hits complete instantly without
        occupying backlog; the rest ride the executor's atomic
        :meth:`~repro.sched.executor.WorkStealingExecutor.submit_batch`
        — if the backlog cannot take them all,
        :class:`~repro.sched.core.BackpressureError` propagates and
        **nothing** is admitted, not even the cache hits.
        """
        if self._closed:
            raise RuntimeError("service is shut down")
        specs = list(specs)
        if not specs:
            raise ValueError("batch must contain at least one job spec")
        resolved = []
        for i, spec in enumerate(specs):
            if not isinstance(spec, Mapping) or "workload" not in spec:
                raise ValueError(
                    f'batch job {i}: each spec needs a "workload"'
                )
            mode = str(spec.get("mode", "sched"))
            entry = workloads.get(str(spec["workload"]))
            workloads.runner_for(entry, mode)
            clean = workloads.validate_params(mode, spec.get("params") or {})
            follow = (self._validate_follow_up(spec["on_complete"])
                      if spec.get("on_complete") is not None else None)
            key = fingerprint("serve", mode, entry.name, clean)
            resolved.append((mode, entry.name, clean, follow, key))

        jobs: list[Job] = []
        hits: list[tuple[Job, Any]] = []
        misses: list[Job] = []
        for mode, name, clean, follow, key in resolved:
            with self._lock:
                self._next_id += 1
                job_id = f"j{self._next_id}"
            job = Job(job_id=job_id, mode=mode, workload=name, params=clean,
                      priority=priority, key=key)
            job.follow_up_spec = follow  # type: ignore[attr-defined]
            jobs.append(job)
            cached = self.cache.get(key, _MISSING)
            if cached is not _MISSING:
                hits.append((job, cached))
            else:
                misses.append(job)

        if misses and not self.breaker.allow():
            instrument.inc("serve.rejected.breaker")
            raise CircuitOpenError(
                "service is shedding load (circuit breaker open)"
            )
        if misses:
            try:
                handles = self.executor.submit_batch(
                    [lambda job=job: self._execute(job) for job in misses],
                    name="serve.batch", priority=priority,
                )
            except BackpressureError:
                # Zero admissions: the cache hits are discarded too —
                # a partially-admitted batch is exactly what this
                # endpoint promises never to produce.
                instrument.inc("serve.rejected.backpressure")
                raise
            for job, handle in zip(misses, handles):
                job.handle = handle

        for job in jobs:
            job.events.emit("state", state="queued")
            instrument.inc("serve.jobs.submitted")
            with self._lock:
                self._jobs[job.job_id] = job
        for job, payload in hits:
            job.cached = True
            job.result = payload
            job.started_s = job.finished_s = time.time()
            job._transition("done", cached=True)
            self._mark_terminal(job)
            instrument.inc("serve.jobs.cached")
        for job in jobs:
            follow = getattr(job, "follow_up_spec", None)
            if follow is not None:
                self.store.add_callback(job.key, follow)
                if job.state in TERMINAL_STATES:
                    self._fire_callbacks(job)
        instrument.gauge("serve.queue.depth", self.executor.pending())
        return jobs

    def _mark_terminal(self, job: Job) -> None:
        """Durably record that this job's key reached a terminal state.

        The completions row is what lets a *restarted* service tell a
        stranded callback (parent finished, fire lost to the shutdown)
        from one whose parent never ran — only the former may be
        resubmitted.  Written before callbacks fire, so there is no
        window where the spec is claimed-or-armed with the parent's
        completion unrecorded.
        """
        self.store.mark_terminal(job.key, job.state)

    def _resubmit_stranded_callbacks(self) -> None:
        """Replay armed follow-ups whose parent already finished.

        Runs once, on construction.  A previous incarnation that shut
        down (or died) between a parent's terminal transition and its
        callback fire left the spec armed in the durable store *and* a
        completions row naming the parent terminal — the fire is lost,
        the obligation is not.  ``claim_callbacks`` flips armed → fired
        atomically, so two services racing on the same store resubmit
        each spec at most once.
        """
        for parent_key, state in self.store.stranded_callbacks():
            for spec in self.store.claim_callbacks(parent_key):
                try:
                    self.submit(
                        mode=spec.get("mode", "sched"),
                        workload=spec["workload"],
                        params=spec.get("params") or {},
                        priority=int(spec.get("priority", 0)),
                        on_complete=spec.get("on_complete"),
                    )
                except Exception as exc:  # noqa: BLE001 - parent long gone
                    instrument.inc("serve.callbacks.dropped")
                    instrument.instant("serve.callback.dropped",
                                       parent=parent_key, error=repr(exc))
                else:
                    instrument.inc("serve.callbacks.resubmitted")
                    instrument.instant("serve.callback.resubmitted",
                                       parent=parent_key, parent_state=state)

    def _fire_callbacks(self, job: Job) -> None:
        """Submit every armed follow-up for this job's key, exactly once.

        During shutdown armed callbacks are deliberately left in the
        durable store untouched: a restarted service pointed at the same
        ``store_path`` still has them.
        """
        if self._closed:
            return
        for spec in self.store.claim_callbacks(job.key):
            try:
                follow = self.submit(
                    mode=spec.get("mode", "sched"),
                    workload=spec["workload"],
                    params=spec.get("params") or {},
                    priority=int(spec.get("priority", 0)),
                    on_complete=spec.get("on_complete"),
                )
            except Exception as exc:  # noqa: BLE001 - parent already terminal
                instrument.inc("serve.callbacks.dropped")
                instrument.instant("serve.callback.dropped", job=job.job_id,
                                   error=repr(exc))
            else:
                job.follow_ups.append(follow.job_id)
                instrument.inc("serve.callbacks.fired")

    def _execute(self, job: Job) -> None:
        """Runs on a scheduler worker; never raises (outcomes live on the
        job, not the task handle — a failed *workload* is a served
        result, not a scheduler fault)."""
        job.started_s = time.time()
        job._transition("running")
        started = time.perf_counter()
        with instrument.span("serve.job", category="serve", job=job.job_id,
                             mode=job.mode, workload=job.workload):
            try:
                payload = workloads.run_job(job.mode, job.workload, job.params)
            except Exception as exc:  # noqa: BLE001 - reported to the client
                job.error = repr(exc)
                self.breaker.record_failure()
                instrument.inc("serve.jobs.failed")
                job._transition("failed", error=job.error)
            else:
                self.cache.put(job.key, payload)
                job.result = payload
                self.breaker.record_success()
                instrument.inc("serve.jobs.completed")
                job._transition("done", cached=False)
        self._mark_terminal(job)
        self._fire_callbacks(job)
        instrument.observe_us(
            "serve.job.latency_us", (time.perf_counter() - started) * 1e6
        )
        instrument.gauge("serve.queue.depth", self.executor.pending())

    # -- inspection ----------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """Raises ``KeyError`` for unknown ids."""
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.created_s)

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; True if it will never run."""
        job = self.get(job_id)
        if job.handle is None or not job.handle.cancel():
            return job.state == "cancelled"
        instrument.inc("serve.jobs.cancelled")
        job._transition("cancelled")
        self._mark_terminal(job)
        self._fire_callbacks(job)
        instrument.gauge("serve.queue.depth", self.executor.pending())
        return True

    def stats(self) -> dict[str, Any]:
        with self._lock:
            by_state: dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "jobs": by_state,
            "queue_depth": self.executor.pending(),
            "backlog": self.backlog,
            "breaker": self.breaker.state,
            "cache": self.cache.stats(),
            "workers": self.executor.n_workers,
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """The active telemetry registry's instruments (for /metrics)."""
        metrics = telemetry.get_metrics()
        return metrics.snapshot() if metrics is not None else {}

    # -- graceful shutdown ---------------------------------------------------

    def shutdown(self, timeout: float | None = None) -> dict[str, int]:
        """Drain in-flight jobs, cancel queued ones, stop the workers.

        Queued-but-unstarted jobs end in a terminal ``cancelled`` state
        (their streams close, pollers see it); running jobs finish and
        are served normally.  Idempotent.  Returns
        ``{"cancelled": n, "drained": m}``.
        """
        with self._lock:
            if self._closed:
                return {"cancelled": 0, "drained": 0}
            self._closed = True
            queued = [job for job in self._jobs.values()
                      if job.state == "queued" and job.handle is not None]
        cancelled = 0
        for job in queued:
            if job.handle.cancel():
                instrument.inc("serve.jobs.cancelled")
                job._transition("cancelled")
                self._mark_terminal(job)
                cancelled += 1
        drained_from = time.time()
        self.executor.shutdown(cancel_pending=True, timeout=timeout)
        # Sweep stragglers: a job admitted concurrently with shutdown may
        # have had its task cancelled at the executor without the service
        # seeing it — reflect the terminal state on the job record too.
        with self._lock:
            stragglers = [job for job in self._jobs.values()
                          if job.state == "queued"]
        for job in stragglers:
            if job.handle is not None and job.handle.cancelled():
                job._transition("cancelled")
                self._mark_terminal(job)
                cancelled += 1
        with self._lock:
            drained = sum(
                1 for job in self._jobs.values()
                if job.finished_s is not None
                and job.finished_s >= drained_from
                and job.state in ("done", "failed")
            )
        if self._session is not None:
            telemetry.disable()
            self._session = None
        if self._owns_store:
            self.store.close()
        return {"cancelled": cancelled, "drained": drained}
