"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``reproduce [--artifact table1..table6|fig1|fig2|all] [--seed N]`` —
  run the study and print regenerated artefacts next to the paper's.
- ``study [--seed N]`` — run the study; print the summary, hypothesis
  verdicts, and fidelity checklist.
- ``patternlet <name> [--threads N]`` — run one patternlet and print its
  output (``--list`` shows the names).
- ``drugdesign [--threads N] [--max-ligand L] [--ligands K]`` — run the
  Assignment-5 protocol under one condition.
- ``experiments [--seed N]`` — generate the paper-vs-ours comparison as
  markdown (exit code reflects whether everything is within tolerance).
- ``timeline`` — print the Fig. 1 semester schedule.
- ``quiz <n>`` — print quiz *n* with its auto-graded answers.
- ``trace <workload> [--out trace.json] [--jsonl events.jsonl]
  [--otlp spans.json] [--follow]`` — run a workload under telemetry and
  export a Chrome ``trace_event`` file (open it in ``chrome://tracing``
  or https://ui.perfetto.dev); ``--follow`` also streams span opens/
  closes and counter updates live to stdout while the workload runs.
- ``chaos <workload> [--seed N] [--trace out.json]`` — run a workload
  under deterministic fault injection and report injected-vs-recovered
  counts plus the canonical injected-event log (``--list`` shows the
  workloads; same seed ⇒ same faults).
- ``sched <workload> [--workers N] [--seed S] [--mode threaded|mp]
  [--speculate] [--spec-k K] [--trace out.json] [--cache]
  [--cache-dir DIR]`` — run a workload through the deterministic
  work-stealing scheduler and print the result, scheduler statistics,
  cache counters, and canonical event log (``--list`` shows the
  workloads; same seed ⇒ byte-identical stdout, and a second
  ``--cache`` run replays the stored result as a cache hit).
  ``--mode mp`` executes task bodies on a process pool — same
  scheduling decisions, same stdout, no GIL.  ``--speculate`` launches
  backup copies of straggling tasks (first completion wins) — it may
  change latency, never the output.
- ``sched --cache-evict --cache-dir DIR [--cache-max-entries N]
  [--cache-max-bytes B]`` — maintenance path: LRU-evict the on-disk
  result-cache tier down to the given caps and report what was removed.
- ``pipeline <workload> [--db PATH] [--resume] [--workers N] [--seed S]
  [--out artifact.json]`` — run a workload as a durable multi-stage
  pipeline over a SQLite-backed job store: every stage checkpoints
  atomically, so a killed run restarted with ``--resume`` continues at
  the first incomplete stage and (fixed seed) produces a byte-identical
  final artifact.  ``--kill-after <stage>`` SIGKILLs the process right
  after that stage's checkpoint commits — the crash/resume test hook.
- ``serve [--host H] [--port P] [--workers N] [--backlog B]
  [--pipeline-db PATH]`` — run the async HTTP job service: POST any
  registered workload to ``/jobs`` (or a batch to ``/jobs/batch``),
  poll ``GET /jobs/<id>`` (or stream with ``?follow=1``), fetch results,
  scrape ``/metrics``.  Backpressure (429), circuit-breaker shedding
  (503), and content-addressed result caching come from the scheduler
  and fault-tolerance layers; ``on_complete`` callbacks and ``pipeline``
  jobs persist through the durable store at ``--pipeline-db``.
  SIGINT/SIGTERM drains gracefully.
- ``bench <suite> [--quick] [--out BENCH_<suite>.json]`` — run one
  benchmark suite of :mod:`repro.benchutil`, print its headline and
  gates, and write the trajectory point; exit code reflects ``ok``.
  ``bench --list`` names the suites:

  - ``kernels`` — every hot numeric loop scalar vs fast kernel (LCS
    sweep, batched scheduler dispatch, stencil, bootstrap);
  - ``mp`` — the process-pool backend against the threaded executor on
    GIL-bound stencil and LCS sweeps, plus the byte-identical stepping
    log (the ≥2-core speedup gate);
  - ``spec`` — a seeded stall-injection plan with and without
    speculative execution (speculative p99 must beat the plain arm,
    results and stepping log identical);
  - ``pipeline`` — the durable store's enqueue and lease/complete
    throughput plus the cold vs resumed pipeline run;
  - ``megacohort`` — the streamed cohort on both executor backends,
    rows/sec and peak RSS against the full-tensor estimate, gated on
    the N=124 identity anchor;
  - ``faults`` — a MapReduce job fault-free vs under the seed-7 chaos
    plan (recovery overhead);
  - ``sched`` — pool vs work-stealing dispatch, steals, and the
    cold/warm result-cache replay.
- ``bench --trajectory`` — one consolidated table over every
  ``BENCH_*.json`` point that exists (suite, timestamp, gate, headline
  metrics).
- ``megacohort [--n N] [--shards S] [--mode threaded|mp] [--speculate]
  [--seed S] [--tables | --json] [--check-identity]`` — regenerate the paper's
  Tables 1–6 for a population-scale cohort (a million students by
  default) by streaming per-shard sufficient statistics through the
  scheduler, never materialising the full response tensor;
  ``--check-identity`` verifies the N=124 single-shard run matches the
  in-memory pipeline byte for byte.

Every workload-running subcommand (``trace``/``chaos``/``sched``/
``serve``) shares one ``--list`` listing: the unified
:mod:`repro.workloads` registry, annotated with the modes each
workload supports.
"""

from __future__ import annotations

import argparse
from typing import Callable, Sequence

__all__ = ["main", "build_parser"]

PATTERNLETS: dict[str, Callable[[int], object]] = {}


def _register_patternlets() -> None:
    if PATTERNLETS:
        return
    from repro.patternlets import (
        run_barrier_demo,
        run_equal_chunks,
        run_fork_join,
        run_race_demo,
        run_reduction_loop,
        run_scheduling_demo,
        run_spmd,
    )
    from repro.patternlets.atomic_private import run_atomic_demo, run_scope_demo

    PATTERNLETS.update({
        "forkjoin": lambda threads: run_fork_join(threads),
        "spmd": lambda threads: run_spmd(threads),
        "race": lambda threads: run_race_demo(threads, 200),
        "equalchunks": lambda threads: run_equal_chunks(threads, 16),
        "scheduling": lambda threads: run_scheduling_demo(threads, 12),
        "reduction": lambda threads: run_reduction_loop(threads, 500),
        "barrier": lambda threads: run_barrier_demo(threads),
        "atomic": lambda threads: run_atomic_demo(threads, 500),
        "scope": lambda threads: run_scope_demo(threads),
    })


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the IPPS 2019 PBL parallel-programming "
                    "case study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reproduce = sub.add_parser("reproduce", help="regenerate paper artefacts")
    reproduce.add_argument("--artifact", default="all",
                           help="table1..table6, fig1, fig2, or all")
    reproduce.add_argument("--seed", type=int, default=2018)

    study = sub.add_parser("study", help="run the full study")
    study.add_argument("--seed", type=int, default=2018)

    patternlet = sub.add_parser("patternlet", help="run one patternlet")
    patternlet.add_argument("name", nargs="?", default=None)
    patternlet.add_argument("--threads", type=int, default=4)
    patternlet.add_argument("--list", action="store_true", dest="list_names")

    drugdesign = sub.add_parser("drugdesign", help="run the A5 protocol")
    drugdesign.add_argument("--threads", type=int, default=4)
    drugdesign.add_argument("--max-ligand", type=int, default=5)
    drugdesign.add_argument("--ligands", type=int, default=120)

    experiments = sub.add_parser(
        "experiments", help="generate the paper-vs-ours comparison as markdown")
    experiments.add_argument("--seed", type=int, default=2018)

    sub.add_parser("timeline", help="print the Fig. 1 schedule")

    quiz = sub.add_parser("quiz", help="print a quiz with answers")
    quiz.add_argument("number", type=int, choices=range(1, 6))

    trace = sub.add_parser(
        "trace", help="run a workload under telemetry, export a Chrome trace")
    trace.add_argument("workload", nargs="?", default=None)
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace_event output path (default trace.json)")
    trace.add_argument("--jsonl", default=None,
                       help="also write flat JSON-lines records here")
    trace.add_argument("--threads", type=int, default=4,
                       help="team size / worker count / rank count")
    trace.add_argument("--otlp", default=None,
                       help="also write OTLP span JSON here")
    trace.add_argument("--follow", action="store_true",
                       help="stream span opens/closes and counter updates "
                            "live while the workload runs")
    trace.add_argument("--list", action="store_true", dest="list_names")

    chaos = sub.add_parser(
        "chaos", help="run a workload under deterministic fault injection")
    chaos.add_argument("workload", nargs="?", default=None)
    chaos.add_argument("--seed", type=int, default=7,
                       help="fault schedule seed (same seed ⇒ same faults)")
    chaos.add_argument("--threads", type=int, default=4,
                       help="team size / worker count / rank count")
    chaos.add_argument("--trace", default=None, dest="trace_out",
                       help="also export a Chrome trace of the chaotic run")
    chaos.add_argument("--list", action="store_true", dest="list_names")

    sched = sub.add_parser(
        "sched", help="run a workload through the work-stealing scheduler")
    sched.add_argument("workload", nargs="?", default=None)
    sched.add_argument("--workers", type=int, default=4,
                       help="scheduler worker count")
    sched.add_argument("--seed", type=int, default=7,
                       help="steal-order seed (same seed ⇒ same schedule)")
    sched.add_argument("--mode", choices=("threaded", "mp"),
                       default="threaded",
                       help="execution vehicle: threads (default) or a "
                            "process pool; output is byte-identical")
    sched.add_argument("--speculate", action="store_true",
                       help="launch backup copies of straggling tasks "
                            "(first completion wins; output is "
                            "byte-identical)")
    sched.add_argument("--spec-k", type=float, default=2.0,
                       help="straggler threshold: a task older than K x "
                            "the median sibling runtime gets a backup")
    sched.add_argument("--trace", default=None, dest="trace_out",
                       help="also export a Chrome trace of the run")
    sched.add_argument("--cache", action="store_true",
                       help="memoise the result (content-addressed)")
    sched.add_argument("--cache-dir", default=None,
                       help="on-disk cache tier (implies --cache); a second "
                            "run against the same directory is a cache hit")
    sched.add_argument("--cache-evict", action="store_true",
                       help="maintenance: LRU-evict the --cache-dir tier to "
                            "the --cache-max-* caps instead of running a "
                            "workload")
    sched.add_argument("--cache-max-entries", type=int, default=None,
                       help="disk-tier cap: keep at most N entries")
    sched.add_argument("--cache-max-bytes", type=int, default=None,
                       help="disk-tier cap: keep at most B bytes")
    sched.add_argument("--list", action="store_true", dest="list_names")

    pipeline = sub.add_parser(
        "pipeline",
        help="run a workload as a durable, resumable multi-stage pipeline")
    pipeline.add_argument("workload", nargs="?", default=None)
    pipeline.add_argument("--db", default=None,
                          help="SQLite job-store path (default: "
                               "$REPRO_PIPELINE_DB or a temp-dir store)")
    pipeline.add_argument("--resume", action="store_true",
                          help="resume from existing checkpoints instead of "
                               "clearing the run and starting fresh")
    pipeline.add_argument("--workers", type=int, default=4,
                          help="fan-out worker count")
    pipeline.add_argument("--seed", type=int, default=7,
                          help="pipeline seed (same seed ⇒ byte-identical "
                               "artifact, interrupted or not)")
    pipeline.add_argument("--out", default=None,
                          help="write the final artifact as canonical JSON "
                               "(the byte-identity comparison target)")
    pipeline.add_argument("--kill-after", default=None, metavar="STAGE",
                          help="SIGKILL this process right after STAGE's "
                               "checkpoint commits (crash/resume testing)")
    pipeline.add_argument("--list", action="store_true", dest="list_names")

    megacohort = sub.add_parser(
        "megacohort",
        help="stream a population-scale survey cohort through the scheduler")
    megacohort.add_argument("--n", type=int, default=1_000_000,
                            help="cohort size (students)")
    megacohort.add_argument("--shards", type=int, default=0,
                            help="shard count (0 sizes shards automatically)")
    megacohort.add_argument("--mode", choices=("threaded", "mp"),
                            default="threaded",
                            help="execution vehicle; merged tables are "
                                 "byte-identical either way")
    megacohort.add_argument("--workers", type=int, default=None,
                            help="executor worker count (default: auto)")
    megacohort.add_argument("--seed", type=int, default=2018,
                            help="run seed (one child stream per shard)")
    megacohort.add_argument("--speculate", action="store_true",
                            help="launch backup copies of straggling "
                                 "shards (first completion wins; merged "
                                 "tables are byte-identical)")
    megacohort.add_argument("--spec-k", type=float, default=2.0,
                            help="straggler threshold multiplier over the "
                                 "median shard runtime")
    megacohort.add_argument("--tables", action="store_true",
                            help="print the full Tables 1-6 instead of the "
                                 "summary digest")
    megacohort.add_argument("--check-identity", action="store_true",
                            help="verify the N=124 single-shard run renders "
                                 "Tables 1-6 byte-identically to the "
                                 "in-memory pipeline, then exit")
    megacohort.add_argument("--json", action="store_true", dest="as_json",
                            help="emit the merged sufficient statistics as "
                                 "JSON")

    serve = sub.add_parser(
        "serve", help="run the async HTTP job service over the scheduler")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8023,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=4,
                       help="scheduler worker threads executing jobs")
    serve.add_argument("--backlog", type=int, default=64,
                       help="admission-queue bound; a full backlog "
                            "answers 429")
    serve.add_argument("--seed", type=int, default=0,
                       help="scheduler steal-order seed")
    serve.add_argument("--cache-dir", default=None,
                       help="on-disk result-cache tier (results survive "
                            "restarts)")
    serve.add_argument("--pipeline-db", default=None,
                       help="durable job-store path for pipeline jobs and "
                            "completion callbacks (default: in-memory)")
    serve.add_argument("--list", action="store_true", dest="list_names")

    from repro.benchutil import SUITES

    bench = sub.add_parser(
        "bench", help="run a benchmark suite and write its trajectory point")
    bench.add_argument("suite", nargs="?", default=None,
                       help=f"benchmark suite name ({', '.join(SUITES)})")
    bench.add_argument("--quick", action="store_true",
                       help="small sizes / few repeats (the CI smoke shape)")
    bench.add_argument("--out", default=None,
                       help="trajectory point output path "
                            "(default BENCH_<suite>.json)")
    bench.add_argument("--list", action="store_true", dest="list_names")
    bench.add_argument("--trajectory", action="store_true",
                       help="print the consolidated table over every "
                            "BENCH_*.json point instead of running a suite")

    return parser


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.core import PBLStudy, ReproductionReport

    study = PBLStudy(seed=args.seed, simulate_teamwork=False)
    result = study.run()
    report = ReproductionReport(analysis=result.analysis, paper=study.paper)
    if args.artifact == "all":
        print(report.render_all())
        return 0
    try:
        if args.artifact.startswith("table"):
            print(report.render_table(args.artifact))
        elif args.artifact.startswith("fig"):
            print(report.render_figure(args.artifact))
        else:
            raise KeyError(args.artifact)
    except KeyError:
        print(f"unknown artifact {args.artifact!r}")
        return 2
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.core import PBLStudy, ReproductionReport

    study = PBLStudy.default(seed=args.seed)
    result = study.run()
    print(f"{result.n_students} students, {len(result.teams)} teams, "
          f"seed {result.seed}")
    print(result.calibration)
    if result.gradebook is not None:
        print(f"gradebook mean: {result.gradebook.mean_total:.1f}/100")
    for outcome in result.hypotheses:
        print(outcome)
    report = ReproductionReport(analysis=result.analysis, paper=study.paper)
    checks = report.fidelity_checks()
    print(f"fidelity: {sum(c.passed for c in checks)}/{len(checks)} checks pass")
    return 0 if report.all_checks_pass() else 1


def _cmd_patternlet(args: argparse.Namespace) -> int:
    _register_patternlets()
    if args.list_names or args.name is None:
        print("available patternlets: " + ", ".join(sorted(PATTERNLETS)))
        return 0
    if args.name not in PATTERNLETS:
        print(f"unknown patternlet {args.name!r}; try --list")
        return 2
    demo = PATTERNLETS[args.name](args.threads)
    print(demo.render())
    return 0


def _cmd_drugdesign(args: argparse.Namespace) -> int:
    from repro.drugdesign import DrugDesignConfig, run_assignment5

    report = run_assignment5(DrugDesignConfig(
        n_ligands=args.ligands,
        max_ligand=args.max_ligand,
        num_threads=args.threads,
    ))
    print(report.render())
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.core import PBLStudy, build_experiment_summary, render_markdown

    result = PBLStudy(seed=args.seed, simulate_teamwork=False).run()
    summary = build_experiment_summary(result)
    print(render_markdown(summary))
    return 0 if summary.all_within_tolerance else 1


def _cmd_timeline(_args: argparse.Namespace) -> int:
    from repro.reporting import render_fig1_timeline

    print(render_fig1_timeline())
    return 0


def _cmd_quiz(args: argparse.Namespace) -> int:
    from repro.course import quiz_bank

    quiz = quiz_bank()[args.number - 1]
    print(f"Quiz {quiz.assignment_number} "
          f"(after assignment {quiz.assignment_number}):")
    for i, question in enumerate(quiz.questions, start=1):
        print(f"  Q{i}. {question.prompt}")
        print(f"      answer: {question.answer()!r}")
    return 0


def _render_follow_event(event) -> str:
    """One live-feed line for a span/counter event (``trace --follow``)."""
    stamp = f"{event.ts_s * 1e3:9.2f}ms"
    data = event.data
    where = f"[{data.get('process', '?')}/t{data.get('tid', '?')}]"
    if event.kind == "span_open":
        return f"{stamp}  open   {data['name']} {where}"
    if event.kind == "span_close":
        return (f"{stamp}  close  {data['name']} {where} "
                f"{data['dur_us'] / 1e3:.2f}ms")
    if event.kind == "counter":
        rest = " ".join(
            f"{key}={value}" for key, value in data.items()
            if key not in ("name", "process", "tid")
        )
        return f"{stamp}  count  {data['name']} {rest}"
    return f"{stamp}  inst   {data.get('name', '')}"


def _run_trace_follow(args: argparse.Namespace) -> tuple[object, object]:
    """Run the workload in a thread; stream its telemetry live.

    The tracer's listener hook feeds an :class:`EventLog` (the same
    plumbing the serve status stream uses); the main thread drains it
    with ``wait()`` and prints one line per span open/close and counter
    update.  Returns ``(summary_or_exception, session)``.
    """
    import threading

    from repro import telemetry
    from repro.serve.events import EventLog
    from repro.telemetry.spans import Tracer
    from repro.telemetry.workloads import run_workload

    log = EventLog()

    def listener(kind: str, record) -> None:
        if kind in ("span_open", "span_close"):
            data = {"name": record.name, "process": record.process,
                    "tid": record.tid}
            if kind == "span_close":
                data["dur_us"] = round(record.duration_us, 1)
            log.emit(kind, **data)
        else:  # instant / counter TraceEvents
            log.emit(kind, name=record.name, process=record.process,
                     tid=record.tid, **record.args)

    session = telemetry.session(Tracer(listener=listener))
    outcome: dict[str, object] = {}

    def work() -> None:
        try:
            with session:
                outcome["summary"] = run_workload(
                    args.workload, threads=args.threads)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
            outcome["error"] = exc
        finally:
            log.close()

    worker = threading.Thread(target=work, name="trace-follow")
    worker.start()
    cursor = 0
    while True:
        log.wait(cursor, timeout=0.25)
        for event in log.after(cursor):
            cursor = event.seq
            print(_render_follow_event(event))
        if log.closed and not log.after(cursor):
            break
    worker.join()
    return outcome.get("error", outcome.get("summary")), session


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import telemetry, workloads
    from repro.telemetry.workloads import run_workload

    if args.list_names or args.workload is None:
        print(workloads.render_listing())
        return 0
    if args.threads < 1:
        print(f"--threads must be >= 1, got {args.threads}")
        return 2
    try:
        if args.follow:
            summary, session = _run_trace_follow(args)
            if isinstance(summary, BaseException):
                raise summary
        else:
            with telemetry.session() as session:
                summary = run_workload(args.workload, threads=args.threads)
    except KeyError:
        print(f"unknown workload {args.workload!r}; try --list")
        return 2
    except workloads.WorkloadModeError as exc:
        print(str(exc))
        return 2
    session.write_chrome_trace(args.out)
    tracer = session.tracer
    processes = sorted({span.process for span in tracer.spans})
    print(summary)
    print(
        f"wrote {args.out}: {len(tracer.spans)} spans, "
        f"{len(tracer.events)} events from {', '.join(processes)}"
    )
    print("open in chrome://tracing or https://ui.perfetto.dev")
    if args.jsonl:
        n_records = session.write_jsonl(args.jsonl)
        print(f"wrote {args.jsonl}: {n_records} records")
    if args.otlp:
        document = session.write_otlp_json(args.otlp)
        n_spans = sum(
            len(scope["spans"])
            for resource in document["resourceSpans"]
            for scope in resource["scopeSpans"]
        )
        print(f"wrote {args.otlp}: {n_spans} OTLP spans")
    return 0


def _unknown_workload_message(mode: str, name: str) -> str:
    """Distinguish "no such workload" from "registered, wrong mode"."""
    from repro import workloads

    try:
        entry = workloads.get(name)
    except KeyError:
        return f"unknown workload {name!r}; try --list"
    return (f"workload {entry.name!r} does not support mode {mode!r} "
            f"(supports: {', '.join(entry.modes)})")


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro import telemetry, workloads
    from repro.faults.chaos import run_chaos

    if args.list_names or args.workload is None:
        print(workloads.render_listing())
        return 0
    if args.threads < 1:
        print(f"--threads must be >= 1, got {args.threads}")
        return 2
    session = telemetry.session() if args.trace_out else None
    try:
        if session is not None:
            with session:
                report = run_chaos(args.workload, seed=args.seed,
                                   threads=args.threads)
        else:
            report = run_chaos(args.workload, seed=args.seed,
                               threads=args.threads)
    except KeyError:
        print(_unknown_workload_message("chaos", args.workload))
        return 2
    print(report.render())
    if session is not None:
        session.write_chrome_trace(args.trace_out)
        print(f"wrote {args.trace_out}: {len(session.tracer.spans)} spans, "
              f"{len(session.tracer.events)} events")
    return 0 if report.ok else 1


def _cmd_sched(args: argparse.Namespace) -> int:
    from repro import telemetry, workloads
    from repro.sched.cache import ResultCache
    from repro.sched.workloads import run_sched_workload

    if args.cache_evict:
        if not args.cache_dir:
            print("--cache-evict requires --cache-dir")
            return 2
        if args.cache_max_entries is None and args.cache_max_bytes is None:
            print("--cache-evict requires --cache-max-entries and/or "
                  "--cache-max-bytes")
            return 2
        cache = ResultCache(directory=args.cache_dir)
        before = cache.disk_stats()
        removed = cache.evict(max_entries=args.cache_max_entries,
                              max_bytes=args.cache_max_bytes)
        after = cache.disk_stats()
        print(f"cache evict: removed {len(removed)} of {before['entries']} "
              f"entries ({before['bytes'] - after['bytes']} bytes); "
              f"{after['entries']} entries / {after['bytes']} bytes remain")
        for key in removed:
            print(f"  evicted {key}")
        return 0
    if args.list_names or args.workload is None:
        print(workloads.render_listing())
        return 0
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}")
        return 2
    if args.spec_k <= 0:
        print(f"--spec-k must be > 0, got {args.spec_k}")
        return 2
    cache = None
    if args.cache or args.cache_dir:
        cache = ResultCache(directory=args.cache_dir,
                            max_disk_entries=args.cache_max_entries,
                            max_disk_bytes=args.cache_max_bytes)
    session = telemetry.session() if args.trace_out else None
    try:
        if session is not None:
            with session:
                report = run_sched_workload(
                    args.workload, workers=args.workers, seed=args.seed,
                    cache=cache, mode=args.mode,
                    speculate=args.speculate, spec_k=args.spec_k,
                )
        else:
            report = run_sched_workload(
                args.workload, workers=args.workers, seed=args.seed,
                cache=cache, mode=args.mode,
                speculate=args.speculate, spec_k=args.spec_k,
            )
    except KeyError:
        print(_unknown_workload_message("sched", args.workload))
        return 2
    print(report.render())
    if session is not None:
        session.write_chrome_trace(args.trace_out)
        print(f"wrote {args.trace_out}: {len(session.tracer.spans)} spans, "
              f"{len(session.tracer.events)} events")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro import workloads
    from repro.pipeline import resolve_db
    from repro.pipeline.stages import PipelineError
    from repro.pipeline.store import JobStore
    from repro.pipeline.workloads import run_pipeline_workload

    if args.list_names or args.workload is None:
        print(workloads.render_listing())
        return 0
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}")
        return 2
    db = resolve_db(args.db)
    try:
        with JobStore(db) as store:
            run = run_pipeline_workload(
                args.workload, store, workers=args.workers, seed=args.seed,
                resume=args.resume, kill_after=args.kill_after,
            )
    except KeyError:
        print(_unknown_workload_message("pipeline", args.workload))
        return 2
    except workloads.WorkloadModeError as exc:
        print(str(exc))
        return 2
    except (PipelineError, ValueError) as exc:
        print(str(exc))
        return 1
    print(run.render())
    print(f"store: {db}")
    if args.out:
        import json

        artifact = {
            "pipeline": run.pipeline,
            "run_id": run.run_id,
            "seed": run.seed,
            "workers": run.workers,
            "output": run.output,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(artifact, sort_keys=True, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.benchutil import SUITES, render_point, render_trajectory, run_suite

    if args.trajectory:
        print(render_trajectory())
        return 0
    if args.list_names or args.suite is None:
        print("available bench suites: " + ", ".join(SUITES))
        return 0
    suite = SUITES.get(args.suite)
    if suite is None:
        print(f"unknown bench suite {args.suite!r}; try --list")
        return 2
    out_path = args.out or suite.filename
    point = run_suite(suite, quick=args.quick, out_path=out_path)
    print(render_point(suite, point))
    print(f"wrote {out_path}")
    return 0 if point["ok"] else 1


def _cmd_megacohort(args: argparse.Namespace) -> int:
    if args.n < 1:
        print(f"--n must be >= 1, got {args.n}")
        return 2
    if args.shards < 0:
        print(f"--shards must be >= 0, got {args.shards}")
        return 2
    if args.spec_k <= 0:
        print(f"--spec-k must be > 0, got {args.spec_k}")
        return 2
    if args.check_identity:
        from repro.megacohort.run import identity_check

        identical, detail = identity_check(args.seed)
        print(f"megacohort identity check (N=124, seed={args.seed}): "
              f"{'OK' if identical else 'FAILED'}")
        for line in detail:
            print(f"  {line}")
        return 0 if identical else 1

    import time as _time

    from repro.benchutil import format_bytes, peak_rss_bytes
    from repro.megacohort.run import full_tensor_bytes, run_streamed

    start = _time.perf_counter()
    result = run_streamed(n=args.n, shards=args.shards or None,
                          seed=args.seed, mode=args.mode,
                          workers=args.workers,
                          speculate=args.speculate, spec_k=args.spec_k)
    elapsed = _time.perf_counter() - start
    if args.as_json:
        import json as _json

        print(_json.dumps(result.stats.as_dict(), sort_keys=True, indent=2))
        return 0
    print(result.summary())
    print(f"  {args.n / elapsed:,.0f} rows/s ({elapsed:.2f} s), "
          f"peak RSS {format_bytes(peak_rss_bytes())} "
          f"(full tensor would be "
          f"{format_bytes(full_tensor_bytes(args.n))})")
    if args.tables:
        print()
        print(result.render_tables())
    else:
        analysis = result.analysis
        print(f"  t_emphasis={analysis.ttest_emphasis.t:.4f} "
              f"t_growth={analysis.ttest_growth.t:.4f} "
              f"d_emphasis={analysis.cohens_d_emphasis.d:.4f} "
              f"d_growth={analysis.cohens_d_growth.d:.4f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import workloads

    if args.list_names:
        print(workloads.render_listing())
        return 0
    import asyncio
    import signal

    from repro.serve.http import ServeApp
    from repro.serve.service import JobService

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}")
        return 2
    if args.pipeline_db:
        from repro.pipeline import set_default_db

        set_default_db(args.pipeline_db)
    service = JobService(workers=args.workers, backlog=args.backlog,
                         seed=args.seed, cache_dir=args.cache_dir,
                         store_path=args.pipeline_db)
    app = ServeApp(service)

    async def run() -> None:
        server = await asyncio.start_server(app.handle, args.host, args.port)
        port = server.sockets[0].getsockname()[1]
        print(f"repro serve listening on http://{args.host}:{port} "
              f"({args.workers} workers, backlog {args.backlog})")
        print("POST /jobs, GET /jobs/<id>[?follow=1], GET /jobs/<id>/result, "
              "GET /workloads, GET /metrics — Ctrl-C drains and exits")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        server.close()
        await server.wait_closed()

    asyncio.run(run())
    summary = service.shutdown()
    print(f"serve shutdown: {summary['drained']} in-flight jobs drained, "
          f"{summary['cancelled']} queued jobs cancelled")
    return 0


_COMMANDS = {
    "reproduce": _cmd_reproduce,
    "study": _cmd_study,
    "patternlet": _cmd_patternlet,
    "drugdesign": _cmd_drugdesign,
    "experiments": _cmd_experiments,
    "timeline": _cmd_timeline,
    "quiz": _cmd_quiz,
    "trace": _cmd_trace,
    "chaos": _cmd_chaos,
    "sched": _cmd_sched,
    "pipeline": _cmd_pipeline,
    "megacohort": _cmd_megacohort,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    ``BrokenPipeError`` (output piped into ``head`` etc.) exits quietly
    with the conventional code 141 instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        import os
        import sys

        # Point stdout at /dev/null so interpreter shutdown does not
        # raise again while flushing, then exit with the SIGPIPE code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
