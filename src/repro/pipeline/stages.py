"""Resumable multi-stage pipelines over the durable store.

A :class:`Pipeline` is an ordered list of named stages; each stage's
output is written to the store as a checkpoint (one atomic SQLite
transaction) before the next stage starts.  A killed run — ``SIGKILL``
at any stage boundary, a crashed worker mid-stage, a pulled power cord —
restarts with ``resume=True`` at the first stage whose checkpoint is
missing, and under a fixed seed the final artifact is **byte-identical**
to an uninterrupted run.  Two properties carry that guarantee:

- every stage output is canonicalised through a JSON round-trip before
  it is either checkpointed *or* handed to the next stage, so a resumed
  stage sees exactly the bytes an uninterrupted one did;
- fan-out work inside a stage (:meth:`StageContext.fan_out`) is durable
  too: one idempotent store job per item, drained through the ranking
  scheduler — a crash mid-stage resumes with the already-completed
  items' results read straight from the store, and only the remainder
  re-executes (deterministic handlers make the union identical).

``kill_after=<stage>`` is the crash hook the chaos-resume tests and the
CI smoke step use: the process ``SIGKILL``\\ s *itself* immediately after
that stage's checkpoint commits — a real, unhandleable death at the
exact stage boundary.
"""

from __future__ import annotations

import json
import os
import signal
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.pipeline.rank import RankingPolicy, StoreScheduler
from repro.pipeline.store import JobStore
from repro.telemetry import instrument as telemetry

__all__ = ["Stage", "StageContext", "Pipeline", "PipelineError", "PipelineRun"]


class PipelineError(RuntimeError):
    """A pipeline could not run a stage to completion."""


def _roundtrip(obj: Any) -> Any:
    """Canonicalise through JSON so live and resumed data are identical."""
    try:
        return json.loads(json.dumps(obj, sort_keys=True))
    except (TypeError, ValueError) as exc:
        raise PipelineError(f"stage output is not JSON-safe: {exc}") from exc


@dataclass(frozen=True)
class Stage:
    """One named step: ``fn(ctx, data) -> data`` (JSON-safe in and out)."""

    name: str
    fn: Callable[["StageContext", Any], Any]


@dataclass
class StageContext:
    """What a running stage sees: the store, the run identity, and the
    durable fan-out helper."""

    store: JobStore
    run_id: str
    seed: int
    workers: int
    params: dict[str, Any]
    stats: dict[str, int] = field(default_factory=dict)

    def _executor(self):
        """A fresh deterministic executor per fan-out: the dispatch
        schedule is a pure function of (workload, workers, seed)."""
        from repro.sched.executor import WorkStealingExecutor

        return WorkStealingExecutor(
            n_workers=self.workers, seed=self.seed, deterministic=True,
        )

    def fan_out(
        self,
        stage: str,
        items: Sequence[Any],
        handler: Callable[[Any], Any],
        expected_score: Callable[[Any], float] | None = None,
    ) -> list[Any]:
        """Run ``handler(item)`` durably for every item; results in
        item order.

        One store job per item (idempotent — a resumed stage finds the
        finished ones already ``done`` and only re-runs the remainder),
        ranked by ``expected_score`` + staleness + the seeded exploration
        bonus, dispatched through a deterministic work-stealing executor
        a lease batch at a time (see :meth:`StoreScheduler.drain`).  A
        cold stage's enqueue reads nothing back, and the final read
        takes only each job's key, id, state, result and error
        (:meth:`JobStore.outcomes`), never the payloads.
        """
        specs = [{
            "run_id": self.run_id,
            "stage": stage,
            "payload": {"index": index, "item": item},
            "expected_score": (
                float(expected_score(item)) if expected_score else 0.0
            ),
        } for index, item in enumerate(items)]
        records = self.store.enqueue_batch(
            specs, rank_key=RankingPolicy(seed=self.seed).rank_key)
        resumed_done = sum(
            1 for record, created in records if record.state == "done"
        )
        scheduler = StoreScheduler(self.store, owner=f"{self.run_id}:{stage}")
        drain_stats = scheduler.drain(
            self._executor(),
            lambda job: handler(job.payload["item"]),
            run_id=self.run_id, stage=stage,
        )
        for key, value in drain_stats.items():
            self.stats[key] = self.stats.get(key, 0) + value
        self.stats["jobs"] = self.stats.get("jobs", 0) + len(records)
        self.stats["resumed_done"] = (
            self.stats.get("resumed_done", 0) + resumed_done
        )
        finals = self.store.outcomes(run_id=self.run_id, stage=stage)
        out: list[Any] = []
        for record, _created in records:
            job_id, state, result, error = finals[record.key]
            if state != "done":
                raise PipelineError(
                    f"fan-out job {job_id} ({stage}) ended {state!r}: {error}"
                )
            out.append(result)
        return out


@dataclass
class PipelineRun:
    """The outcome of one (possibly resumed) pipeline run."""

    pipeline: str
    run_id: str
    seed: int
    workers: int
    output: Any                               # final stage's checkpoint
    stage_status: list[tuple[str, str]]       # (name, "ran" | "resumed")
    stats: dict[str, int]

    @property
    def summary(self) -> str:
        if isinstance(self.output, Mapping) and "summary" in self.output:
            return str(self.output["summary"])
        return (f"pipeline {self.pipeline}: {len(self.stage_status)} "
                f"stage(s) complete")

    @property
    def output_lines(self) -> list[str]:
        if isinstance(self.output, Mapping) and "lines" in self.output:
            return [str(line) for line in self.output["lines"]]
        return [json.dumps(self.output, sort_keys=True)]

    @property
    def resumed_stages(self) -> int:
        return sum(1 for _name, status in self.stage_status
                   if status == "resumed")

    def render(self) -> str:
        """Deterministic report (timings live in telemetry, not here)."""
        lines = [
            f"pipeline {self.pipeline!r} run={self.run_id} seed={self.seed} "
            f"workers={self.workers}",
        ]
        for name, status in self.stage_status:
            lines.append(f"  stage {name}: {status}")
        lines.append(f"  {self.summary}")
        lines.append("result:")
        lines.extend(f"  {line}" for line in self.output_lines)
        return "\n".join(lines)


class Pipeline:
    """An ordered, named, resumable sequence of stages."""

    def __init__(self, name: str, stages: Sequence[Stage]) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        seen: set[str] = set()
        for stage in stages:
            if stage.name in seen:
                raise ValueError(f"duplicate stage name {stage.name!r}")
            seen.add(stage.name)
        self.name = name
        self.stages = tuple(stages)

    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def default_run_id(self, seed: int, params: Mapping[str, Any]) -> str:
        """Deterministic run identity: same pipeline + seed + params →
        same run, which is what lets ``--resume`` find its checkpoints."""
        from repro.sched.cache import fingerprint

        return f"{self.name}-s{seed}-{fingerprint(self.name, seed, dict(params))[:12]}"

    def run(
        self,
        store: JobStore,
        seed: int = 7,
        workers: int = 4,
        params: Mapping[str, Any] | None = None,
        run_id: str | None = None,
        resume: bool = True,
        kill_after: str | None = None,
    ) -> PipelineRun:
        """Run (or resume) the pipeline to completion.

        With ``resume=False`` the run's previous checkpoints and jobs
        are cleared first — a guaranteed-fresh start.  ``kill_after``
        SIGKILLs the process right after that stage's checkpoint commits
        (the crash/resume test hook).
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        clean_params = dict(params or {})
        rid = run_id or self.default_run_id(seed, clean_params)
        if kill_after is not None and kill_after not in self.stage_names():
            raise ValueError(
                f"kill_after names unknown stage {kill_after!r} "
                f"(stages: {', '.join(self.stage_names())})"
            )
        if not resume:
            store.clear_run(rid)
        ctx = StageContext(store=store, run_id=rid, seed=seed,
                           workers=workers, params=clean_params)
        status: list[tuple[str, str]] = []
        data: Any = _roundtrip(clean_params)
        with telemetry.span("pipeline.run", category="pipeline",
                            pipeline=self.name, run_id=rid, seed=seed,
                            workers=workers):
            for stage in self.stages:
                checkpoint = store.checkpoint_get(rid, stage.name) \
                    if resume else None
                if checkpoint is not None:
                    data = checkpoint
                    status.append((stage.name, "resumed"))
                    telemetry.inc("pipeline.stages.resumed")
                    continue
                with telemetry.span("pipeline.stage", category="pipeline",
                                    pipeline=self.name, stage=stage.name):
                    data = _roundtrip(stage.fn(ctx, data))
                store.checkpoint_put(rid, stage.name, data)
                status.append((stage.name, "ran"))
                telemetry.inc("pipeline.stages.ran")
                if stage.name == kill_after:
                    os.kill(os.getpid(), signal.SIGKILL)
        return PipelineRun(
            pipeline=self.name, run_id=rid, seed=seed, workers=workers,
            output=data, stage_status=status, stats=dict(ctx.stats),
        )
