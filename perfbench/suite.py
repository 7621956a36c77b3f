"""The four workloads of the repo benchmark.

Each workload sets itself up once (:meth:`setup`), then runs passes of
repeated operations (:meth:`measure`).  A pass checks every output it
produced against an independent reference after its timed region, so a
wrong answer counts as a failed operation.  With a :class:`Recorder` the
pass is traced: timing wrappers sit on the layers the workload reaches,
and :meth:`layer_metrics` turns the spans and status fields into the
per-layer metrics.  Why each workload exists, and which end-to-end
metric each layer should move, is written down in ``README.md``.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Any

import layers
import loadgen
from layers import Recorder, median
from repro.benchutil import peak_rss_bytes

#: Scratch space for stores, under the directory the benchmark runs in.
WORK_DIR = os.path.join(".perfbench", "work")

#: The study seed every run repeats: the paper's own, ``PBLStudy``'s
#: default.  It passes all 19 fidelity checks (of seeds 0-47, some miss a
#: Cohen's d band), and a study's cost depends on its seed: cycling
#: through seven passing seeds, a run that got through four studies timed
#: a different mix than one that got through six.  Of the passing seeds
#: it is the cheapest (one sweep timed it at 1.5 s and the others at
#: 1.7-3.7 s), so a run holds the most studies and its median the least
#: noise.
STUDY_SEED = 2018

#: Cohort seeds whose N=124 calibration, paid once per process in
#: set-up, takes the typical time (0.6-0.8 s where seeds 44-99 took
#: 0.04-0.82 s), so ``setup_s`` does not swing with the seed.
COHORT_SEEDS = (44, 45, 46, 48, 49, 50, 51, 52, 54, 56, 58, 59, 60, 62, 65,
                66, 67, 68, 69, 70, 71, 72, 73, 76, 77, 78, 79, 80, 81, 84,
                85, 86, 87, 89, 90, 92, 93, 94, 95, 96, 97, 98, 99)


@dataclass
class Outcome:
    """What one pass measured."""

    ops_s: list[float] = field(default_factory=list)   # per-operation latency
    items: float = 0.0                                  # work items done ...
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0                                 # ... in this wall time
    peak_rss_bytes: int = 0             # read before the correctness check
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def items_per_s(self) -> float:
        return self.items / self.wall_s if self.wall_s > 0 else 0.0


def _roundtrip(payload: Any) -> Any:
    """The JSON view a client sees of an in-process payload."""
    return json.loads(json.dumps(payload, sort_keys=True))


def _patching(recorder: Recorder | None, targets: list[tuple]):
    return recorder.patched(targets) if recorder is not None \
        else contextlib.nullcontext()


def _span(recorder: Recorder | None, name: str):
    return recorder.span(name) if recorder is not None \
        else contextlib.nullcontext()


def _repeat(seconds: float, op) -> None:
    """Call ``op()`` until the next call would end past ``seconds``
    (judged by the slowest call so far); always at least once."""
    started = time.perf_counter()
    slowest = 0.0
    while True:
        before = time.perf_counter()
        op()
        slowest = max(slowest, time.perf_counter() - before)
        if time.perf_counter() - started + slowest > seconds:
            return


class Workload:
    """One workload: set up once per process, then measured in passes."""

    name = ""
    #: Generator threads and client connections the workload drives.
    threads = 1
    connections = 0
    #: Span name of one operation (the root of the accounting trees).
    op_span = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, pass_index: int,
                recorder: Recorder | None) -> Outcome:
        raise NotImplementedError

    def layer_metrics(self, recorder: Recorder, outcome: Outcome) -> dict[str, float]:
        raise NotImplementedError

    def accounting(self, recorder: Recorder, outcome: Outcome) -> tuple[float, float]:
        """(accounted_ratio, unattributed_share) of the traced pass."""
        ratio = layers.accounted_ratio(recorder, self.op_span)
        rows = recorder.self_by_name(self.op_span)
        wall = sum(recorder.durations(self.op_span))
        own = sum(rows.get(self.op_span, []))
        return ratio, (own / wall if wall else 0.0)

    def close(self) -> None:
        pass


# -- serve_mix ----------------------------------------------------------------


class ServeMix(Workload):
    """Open-loop HTTP load on an in-process ``repro serve`` at CLI defaults."""

    name = "serve_mix"
    threads = loadgen.THREADS
    connections = loadgen.THREADS
    #: Offered load: about a quarter of the ~64/s at which this service
    #: stopped keeping up on a 2-vCPU VM whose speed halves at times.  At
    #: half that rate a slow spell pushed p50 from ~10 ms to 43 ms (see
    #: README.md).
    RATE_PER_S = 15.0

    def setup(self, seed: int) -> None:
        from repro.serve.http import BackgroundServer
        from repro.serve.service import JobService

        self.seed = seed
        self.service = JobService(workers=4, backlog=64)
        self.server = BackgroundServer(self.service).start()
        # First-call lazy loads: one job of each kind (seed 0 is outside
        # the schedule's seed range, so these never serve as cache hits).
        warm = [loadgen.Request(i, 0.0, {"workload": name, "mode": "sched",
                                         "params": {"seed": 0}})
                for i, (name, _weight) in enumerate(loadgen.MIX)]
        loadgen.Client(self.server.port).run(warm)
        bad = [r.error for r in warm if r.error or r.state != "done"]
        if bad:
            raise RuntimeError(f"serve warm-up failed: {bad}")

    def measure(self, seconds: float, pass_index: int,
                recorder: Recorder | None) -> Outcome:
        from repro import telemetry, workloads

        rng = random.Random(f"serve_mix:{self.seed}:{pass_index}")
        requests = loadgen.make_schedule(rng, self.RATE_PER_S, seconds)
        cache = self.service.cache
        hits, misses = cache.hits, cache.misses
        targets = [
            (self.service, "submit", "serve.service.submit"),
            (cache, "get", "sched.cache.get"),
            (cache, "put", "sched.cache.put"),
            (self.service.store, "mark_terminal", "pipeline.store.mark_terminal"),
            (workloads, "run_job", "workloads.run_job"),
        ]
        with _patching(recorder, targets):
            start_wall = loadgen.Client(self.server.port, recorder).run(requests)
        tracer = telemetry.get_tracer()
        out = Outcome(attempted=len(requests), peak_rss_bytes=peak_rss_bytes())
        out.notes.update(
            requests=requests,
            cache_lookups=(cache.hits - hits) + (cache.misses - misses),
            cache_hits=cache.hits - hits,
            spans_retained=len(tracer.spans) if tracer is not None else 0,
        )
        # Correctness: every payload equals a direct run_job of its spec,
        # and every cache hit equals the first execution of that spec.
        reference: dict[str, Any] = {}
        first_run: dict[str, Any] = {}
        finished = []
        for request in requests:
            key = json.dumps(request.spec, sort_keys=True)
            if key not in reference:
                spec = request.spec
                reference[key] = _roundtrip(workloads.run_job(
                    spec["mode"], spec["workload"], spec["params"]))
            if not request.error and request.state == "done" \
                    and not request.cached:
                first_run.setdefault(key, request.payload)
            ok = (not request.error and request.state == "done"
                  and request.payload == reference[key]
                  and (not request.cached
                       or request.payload == first_run.get(key, reference[key])))
            if not ok:
                out.failed += 1
                continue
            out.ops_s.append(request.latency_s)
            finished.append(request.finished_s)
        out.items = len(finished)
        out.wall_s = (max(finished) - start_wall) if finished else 0.0
        return out

    def layer_metrics(self, recorder: Recorder, outcome: Outcome) -> dict[str, float]:
        requests = [r for r in outcome.notes["requests"]
                    if r.state == "done" and not r.error]
        executed = [r for r in requests if not r.cached]
        waits = [(r.started_s - r.created_s) * 1e3 for r in executed]
        tail = layers.tail_percentile(waits)
        e2e_tail = layers.tail_percentile([s * 1e3 for s in outcome.ops_s])
        submit_self = recorder.self_by_name("serve.service.submit")
        lookups = outcome.notes["cache_lookups"]
        return {
            "serve.http.post_ms": median(recorder.durations("serve.http.post")) / 1e3,
            "serve.http.get_ms": median(recorder.durations("serve.http.get")) / 1e3,
            "serve.http.polls_per_job": (
                sum(r.polls for r in requests) / len(requests) if requests else 0.0),
            "serve.service.submit_us": median(submit_self.get("serve.service.submit", [])),
            "sched.queue.wait_ms": median(waits),
            "sched.queue.wait_tail_ms": tail[1] if tail else 0.0,
            "workloads.run_job_ms": median(
                [(r.finished_s - r.started_s) * 1e3 for r in executed]),
            "serve.discovery_lag_ms": median(
                [(r.seen_wall - r.finished_s) * 1e3 for r in requests]),
            "sched.cache.hit_ratio": outcome.notes["cache_hits"] / lookups if lookups else 0.0,
            "sched.cache.get_us": median(recorder.durations("sched.cache.get")),
            "sched.cache.put_us": median(recorder.durations("sched.cache.put")),
            "pipeline.store.mark_terminal_us": median(
                recorder.durations("pipeline.store.mark_terminal")),
            "telemetry.spans_retained": outcome.notes["spans_retained"],
            "loadgen.late_ms": median([r.late_s * 1e3 for r in outcome.notes["requests"]]),
            "loadgen.late_max_ms": max(
                (r.late_s * 1e3 for r in outcome.notes["requests"]), default=0.0),
            "serve.tail_ms": e2e_tail[1] if e2e_tail else 0.0,
            "serve.tail_pct": e2e_tail[0] if e2e_tail else 0.0,
            "serve.samples": len(outcome.ops_s),
        }

    def accounting(self, recorder: Recorder, outcome: Outcome) -> tuple[float, float]:
        """Each executed job's latency splits into contiguous segments
        along its critical path: generator lateness (due → sent), HTTP
        admission (sent → created_s), queue wait and execution.  The
        ratio is their summed lengths, each clamped at zero, over the
        summed latencies; admission is the part no wrapped layer owns."""
        segments = latency = admission = 0.0
        for r in outcome.notes["requests"]:
            if r.state != "done" or r.error or r.cached:
                continue
            parts = (r.sent_wall - r.due_wall, r.created_s - r.sent_wall,
                     r.started_s - r.created_s, r.finished_s - r.started_s)
            segments += sum(max(0.0, part) for part in parts)
            admission += max(0.0, parts[1])
            latency += r.finished_s - r.due_wall
        if not latency:
            return 0.0, 0.0
        return segments / latency, admission / latency

    def close(self) -> None:
        self.server.stop()


# -- pipeline_sweep -----------------------------------------------------------


class PipelineSweep(Workload):
    """Cold drug-design pipeline sweeps on an on-disk store, each resumed."""

    name = "pipeline_sweep"
    op_span = "pipeline.cold"
    #: Ligands per sweep: big enough that the store's per-round re-read
    #: of pending rows shows, small enough for several sweeps per run.
    LIGANDS = 3000
    #: The pipeline's other generation parameters, pinned so the
    #: reference below regenerates exactly the same inputs.
    PARAMS = {"max_ligand": 6, "protein": 48}

    def setup(self, seed: int) -> None:
        # Imports, then one tiny sweep: first-call lazy loads.
        self.seed = seed
        self.work = os.path.join(WORK_DIR, f"pipeline-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self._sweep(0, 8, None)

    def _store_targets(self, store, recorder: Recorder) -> list[tuple]:
        def rows(_span, result, _args) -> None:
            recorder.count("rows_read", len(result))

        return [
            (store, "enqueue_batch", "pipeline.store.enqueue_batch"),
            (store, "pending_jobs", "pipeline.store.pending_jobs", rows),
            (store, "lease", "pipeline.store.lease"),
            (store, "complete", "pipeline.store.complete"),
            (store, "checkpoint_put", "pipeline.store.checkpoint_put"),
            (store, "checkpoint_get", "pipeline.store.checkpoint_get"),
            (store, "get_by_key", "pipeline.store.get_by_key"),
            (store, "reclaim_expired", "pipeline.store.reclaim_expired"),
            (store, "clear_run", "pipeline.store.clear_run"),
        ]

    def _sweep(self, seed: int, ligands: int, recorder: Recorder | None):
        """One cold run and its resume; returns (cold_s, resume_s, cold, resumed)."""
        from repro.drugdesign import solvers
        from repro.pipeline.rank import RankingPolicy
        from repro.pipeline.store import JobStore
        from repro.pipeline.workloads import run_pipeline_workload
        from repro.sched.executor import WorkStealingExecutor

        db = os.path.join(self.work, f"sweep-{seed}.db")
        params = {"ligands": ligands, **self.PARAMS}
        layer_targets = [
            (RankingPolicy, "rank", "pipeline.rank.rank"),
            (WorkStealingExecutor, "map", "sched.executor.map"),
            (solvers, "score_ligands", "kernels.score_ligands"),
        ]
        runs = []
        with _patching(recorder, layer_targets):
            for resume, span_name in ((False, "pipeline.cold"),
                                      (True, "pipeline.resume")):
                started = time.perf_counter()
                with _span(recorder, span_name):
                    with JobStore(db) as store:
                        targets = [] if recorder is None \
                            else self._store_targets(store, recorder)
                        with _patching(recorder, targets):
                            run = run_pipeline_workload(
                                "drugdesign", store, workers=4, seed=seed,
                                resume=resume, params=params)
                runs.append((time.perf_counter() - started, run))
        for suffix in ("", "-wal", "-shm"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(db + suffix)
        return runs[0][0], runs[1][0], runs[0][1], runs[1][1]

    def _reference_lines(self, seed: int) -> list[str]:
        """The report lines a fault-free sweep must produce, from scalar
        LCS scores of independently regenerated inputs."""
        from repro import kernels
        from repro.drugdesign.ligands import generate_ligands, generate_protein

        ligands = generate_ligands(n_ligands=self.LIGANDS,
                                   max_ligand=self.PARAMS["max_ligand"], seed=seed)
        protein = generate_protein(length=self.PARAMS["protein"], seed=seed + 1)
        ranked = sorted(((lig, kernels.lcs_score(lig, protein)) for lig in ligands),
                        key=lambda pair: (-pair[1], pair[0]))
        top = ranked[0][1]
        return [
            f"max_score={top}",
            "best=" + ",".join(sorted(lig for lig, s in ranked if s == top)),
            f"ligands_scored={len(ranked)}",
            "top5=" + ",".join(f"{lig}:{s}" for lig, s in ranked[:5]),
        ]

    def measure(self, seconds: float, pass_index: int,
                recorder: Recorder | None) -> Outcome:
        rng = random.Random(f"pipeline_sweep:{self.seed}:{pass_index}")
        sweeps = []

        def op() -> None:
            seed = rng.randrange(1, 2**31)
            sweeps.append((seed, *self._sweep(seed, self.LIGANDS, recorder)))

        _repeat(seconds, op)
        out = Outcome(attempted=len(sweeps), peak_rss_bytes=peak_rss_bytes())
        resumes, rounds, jobs = [], [], []
        for seed, cold_s, resume_s, cold, resumed in sweeps:
            ok = (cold.output_lines == self._reference_lines(seed)
                  and json.dumps(resumed.output, sort_keys=True)
                  == json.dumps(cold.output, sort_keys=True)
                  and resumed.resumed_stages == len(resumed.stage_status))
            if not ok:
                out.failed += 1
                continue
            out.ops_s.append(cold_s)
            resumes.append(resume_s)
            rounds.append(cold.stats.get("rounds", 0))
            jobs.append(cold.stats.get("jobs", 0))
        out.items = self.LIGANDS                 # in the median cold sweep
        out.wall_s = median(out.ops_s)
        out.notes.update(resumes=resumes, rounds=rounds, jobs=jobs)
        return out

    def layer_metrics(self, recorder: Recorder, outcome: Outcome) -> dict[str, float]:
        sweeps = max(1, len(outcome.ops_s))
        own = recorder.self_by_name("pipeline.cold")
        store = {name: recorder.durations(f"pipeline.store.{name}")
                 for name in ("enqueue_batch", "lease", "complete",
                              "checkpoint_put", "pending_jobs")}
        rows_read = recorder.counts.get("rows_read", 0) / sweeps
        return {
            "pipeline.store.enqueue_batch_ms": median(store["enqueue_batch"]) / 1e3,
            "pipeline.store.enqueue_batch_calls": len(store["enqueue_batch"]) / sweeps,
            "pipeline.store.lease_ms": median(store["lease"]) / 1e3,
            "pipeline.store.lease_calls": len(store["lease"]) / sweeps,
            "pipeline.store.complete_us": median(store["complete"]),
            "pipeline.store.complete_calls": len(store["complete"]) / sweeps,
            "pipeline.store.checkpoint_put_ms": median(store["checkpoint_put"]) / 1e3,
            "pipeline.store.checkpoint_put_calls": len(store["checkpoint_put"]) / sweeps,
            "pipeline.store.pending_jobs_ms": median(store["pending_jobs"]) / 1e3,
            "pipeline.store.rows_read": rows_read,
            "pipeline.store.rows_read_per_job": (
                rows_read / median(outcome.notes["jobs"]) if outcome.notes["jobs"] else 0.0),
            "pipeline.rank.rank_ms": median(recorder.durations("pipeline.rank.rank")) / 1e3,
            "pipeline.drain.rounds": median(outcome.notes["rounds"]),
            "sched.executor.map_ms": median(own.get("sched.executor.map", [])) / 1e3,
            "kernels.score_ligands_us": median(recorder.durations("kernels.score_ligands")),
            "pipeline.resume_ms": median(outcome.notes["resumes"]) * 1e3,
        }

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# -- megacohort_stream --------------------------------------------------------


class MegacohortStream(Workload):
    """Streamed survey regeneration through the process pool."""

    name = "megacohort_stream"
    op_span = "megacohort.run"
    #: Cohort rows per run: ~12 shards of the default 16384 rows, enough
    #: that shard work dominates the per-run pool spawn.
    ROWS = 200_000

    def setup(self, seed: int) -> None:
        from repro.config import resolve_mp_workers
        from repro.megacohort.run import run_streamed

        self.cohort_seed = random.Random(f"megacohort:{seed}").choice(COHORT_SEEDS)
        self.workers = resolve_mp_workers(os.cpu_count() or 1)
        # Calibration is cached per seed; the first pool spawn pays the
        # imports it forks with.
        run_streamed(n=2000, shards=2, seed=self.cohort_seed, mode="mp",
                     workers=self.workers)

    def measure(self, seconds: float, pass_index: int,
                recorder: Recorder | None) -> Outcome:
        from repro import procpool
        from repro.megacohort import run as mc_run
        from repro.sched.executor import WorkStealingExecutor

        shipped: list[tuple[tuple, float, int]] = []

        def reply(span, result, args) -> None:
            # (the shipped call's args, round trip µs, reply bytes)
            shipped.append((args[2].args, span.duration_us,
                            len(pickle.dumps(result))))

        targets = [
            (procpool.ProcessPool, "run", "procpool.run", reply),
            (procpool.ProcessPool, "__init__", "procpool.spawn"),
            (WorkStealingExecutor, "drain", "sched.executor.drain"),
            (mc_run, "merge_indexed", "stats.merge_indexed"),
            (mc_run, "analyze", "megacohort.analyze"),
        ]
        results = []

        def op() -> None:
            started = time.perf_counter()
            with _span(recorder, "megacohort.run"):
                result = mc_run.run_streamed(n=self.ROWS, seed=self.cohort_seed,
                                             mode="mp", workers=self.workers)
            results.append((time.perf_counter() - started, result))

        with _patching(recorder, targets):
            _repeat(seconds, op)
        peak = peak_rss_bytes()
        reference = mc_run.run_streamed(
            n=self.ROWS, seed=self.cohort_seed, mode="threaded",
            workers=self.workers).render_tables()
        out = Outcome(attempted=len(results), peak_rss_bytes=peak)
        for elapsed, result in results:
            if result.mode != "mp" or result.render_tables() != reference:
                out.failed += 1
                continue
            out.ops_s.append(elapsed)
        out.items = self.ROWS                    # in the median run
        out.wall_s = median(out.ops_s)
        # Runs are sequential, so the first run's shards come first.
        out.notes["shipped"] = shipped[:len(shipped) // len(results)]
        return out

    def layer_metrics(self, recorder: Recorder, outcome: Outcome) -> dict[str, float]:
        from repro.megacohort.aggregate import SurveyStats
        from repro.megacohort.shards import shard_scores

        # shard_stats_task ships to the children by import path, so it is
        # never wrapped: its two halves are timed here, in-process, on the
        # shards the first traced run shipped.
        draw, reduce, transport = [], [], []
        for args, run_us, _size in outcome.notes["shipped"]:
            spec, knobs, skills, items_per_skill, seed = args
            started = time.perf_counter()
            scores = shard_scores(spec, knobs, len(skills), items_per_skill, seed)
            drawn = time.perf_counter()
            SurveyStats.from_scores(skills, scores)
            reduced = time.perf_counter()
            draw.append((drawn - started) * 1e3)
            reduce.append((reduced - drawn) * 1e3)
            transport.append(run_us / 1e3 - (reduced - started) * 1e3)
        own = recorder.self_by_name("megacohort.run")
        return {
            "megacohort.draw_ms": median(draw),
            "megacohort.reduce_ms": median(reduce),
            "procpool.run_ms": median(recorder.durations("procpool.run")) / 1e3,
            "procpool.transport_ms": median(transport),
            "procpool.reply_bytes": median([size for *_, size in outcome.notes["shipped"]]),
            "procpool.spawn_s": median(recorder.durations("procpool.spawn")) / 1e6,
            "stats.merge_indexed_ms": median(recorder.durations("stats.merge_indexed")) / 1e3,
            "megacohort.analyze_ms": median(recorder.durations("megacohort.analyze")) / 1e3,
            "sched.executor.drain_ms": median(own.get("sched.executor.drain", [])) / 1e3,
        }


# -- paper_study --------------------------------------------------------------


class PaperStudy(Workload):
    """The paper's Tables 1-6, reproduced and checked 19/19, repeatedly."""

    name = "paper_study"
    op_span = "study.run"
    LAYERS = (
        ("cohort.form_teams", "cohort.form_teams_s"),
        ("course.run_assignment_programs", "course.run_assignment_programs_s"),
        ("core.analyze_waves", "core.analyze_waves_s"),
        ("core.fidelity_checks", "core.fidelity_checks_s"),
    )

    def setup(self, seed: int) -> None:
        # The study seed is fixed (see STUDY_SEED); set-up is imports.
        from repro.core.report import ReproductionReport  # noqa: F401
        from repro.core.study import PBLStudy  # noqa: F401

    def measure(self, seconds: float, pass_index: int,
                recorder: Recorder | None) -> Outcome:
        from repro.core import study as study_mod
        from repro.core.report import ReproductionReport

        targets = [
            (study_mod, "form_teams", "cohort.form_teams"),
            (study_mod, "run_assignment_programs", "course.run_assignment_programs"),
            (study_mod, "analyze_waves", "core.analyze_waves"),
            (ReproductionReport, "fidelity_checks", "core.fidelity_checks"),
        ]
        runs = []

        def op() -> None:
            started = time.perf_counter()
            with _span(recorder, "study.run"):
                study = study_mod.PBLStudy.default(STUDY_SEED)
                result = study.run()
                checks = ReproductionReport(analysis=result.analysis,
                                            paper=study.paper).fidelity_checks()
            runs.append((time.perf_counter() - started, checks))

        with _patching(recorder, targets):
            _repeat(seconds, op)
        out = Outcome(attempted=len(runs), peak_rss_bytes=peak_rss_bytes())
        for elapsed, checks in runs:
            if len(checks) != 19 or not all(check.passed for check in checks):
                out.failed += 1
                continue
            out.ops_s.append(elapsed)
        out.items = 1                            # in the median study
        out.wall_s = median(out.ops_s)
        return out

    def layer_metrics(self, recorder: Recorder, outcome: Outcome) -> dict[str, float]:
        per_study = recorder.per_root("study.run")
        metrics = {
            metric: median([totals.get(span, 0.0) / 1e6 for totals in per_study])
            for span, metric in self.LAYERS
        }
        metrics["study.other_s"] = median(
            [totals.get("study.run", 0.0) / 1e6 for totals in per_study])
        return metrics


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServeMix, PipelineSweep, MegacohortStream, PaperStudy)
}
