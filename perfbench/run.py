"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 24 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a short
untraced pass and then a traced pass, prints the per-layer metrics, and
writes the layer self-time table and a Chrome trace under ``.perfbench/``.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a run whose outputs
fail the correctness check exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench")

#: Fresh processes timed from start to the end of set-up, per run.
SETUP_PROBES = 5

#: Share of a traced run spent in the untraced pass that the tracing
#: overhead is measured against.
UNTRACED_SHARE = 1 / 3

#: |accounted_ratio - 1| allowed before a traced run is marked incorrect.
ACCOUNTING_TOLERANCE = 0.05

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
    "p50_ms": "ms",
    "items_per_s": "1/s",
}

PER_LAYER = {
    "serve.http.post_ms": "ms",
    "serve.http.get_ms": "ms",
    "serve.http.polls_per_job": "count",
    "serve.service.submit_us": "us",
    "sched.queue.wait_ms": "ms",
    "sched.queue.wait_tail_ms": "ms",
    "workloads.run_job_ms": "ms",
    "serve.discovery_lag_ms": "ms",
    "sched.cache.hit_ratio": "ratio",
    "sched.cache.get_us": "us",
    "sched.cache.put_us": "us",
    "pipeline.store.mark_terminal_us": "us",
    "telemetry.spans_retained": "count",
    "loadgen.late_ms": "ms",
    "loadgen.late_max_ms": "ms",
    "serve.tail_ms": "ms",
    "serve.tail_pct": "pct",
    "serve.samples": "count",
    "pipeline.store.enqueue_batch_ms": "ms",
    "pipeline.store.enqueue_batch_calls": "count",
    "pipeline.store.lease_ms": "ms",
    "pipeline.store.lease_calls": "count",
    "pipeline.store.complete_us": "us",
    "pipeline.store.complete_calls": "count",
    "pipeline.store.checkpoint_put_ms": "ms",
    "pipeline.store.checkpoint_put_calls": "count",
    "pipeline.store.pending_jobs_ms": "ms",
    "pipeline.store.rows_read": "count",
    "pipeline.store.rows_read_per_job": "count",
    "pipeline.rank.rank_ms": "ms",
    "pipeline.drain.rounds": "count",
    "sched.executor.map_ms": "ms",
    "kernels.score_ligands_us": "us",
    "pipeline.resume_ms": "ms",
    "megacohort.draw_ms": "ms",
    "megacohort.reduce_ms": "ms",
    "procpool.run_ms": "ms",
    "procpool.transport_ms": "ms",
    "procpool.reply_bytes": "bytes",
    "procpool.spawn_s": "s",
    "stats.merge_indexed_ms": "ms",
    "megacohort.analyze_ms": "ms",
    "sched.executor.drain_ms": "ms",
    "cohort.form_teams_s": "s",
    "course.run_assignment_programs_s": "s",
    "core.analyze_waves_s": "s",
    "core.fidelity_checks_s": "s",
    "study.other_s": "s",
    "trace.accounted_ratio": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.overhead_pct": "pct",
}


def _git_sha() -> str:
    # Without its own .git, git would search the parent directories.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(workload) -> dict:
    import numpy

    from repro import kernels
    from repro.config import resolve_mp_start_method

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "git_sha": _git_sha(),
        "kernels_backend": kernels.backend(),
        "mp_start_method": resolve_mp_start_method(),
        "generator_threads": workload.threads,
        "generator_connections": workload.connections,
    }


def setup_seconds(args) -> list[float]:
    """Start-to-ready times of fresh processes that only set up."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - started
            child.stdout.read()
            child.wait(timeout=120)
        if not ready or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        samples.append(elapsed)
    return samples


def end_to_end(workload, outcome, args) -> tuple[dict, dict]:
    setups = setup_seconds(args)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": outcome.peak_rss_bytes / 2**20,
        "ok_ratio": 1 - outcome.failed / outcome.attempted,
        "p50_ms": statistics.median(outcome.ops_s) * 1e3 if outcome.ops_s else 0.0,
        "items_per_s": outcome.items_per_s,
    }
    details = {"setup_samples_s": setups, "ops": len(outcome.ops_s)}
    if len(outcome.ops_s) <= 100:
        details["ops_ms"] = [s * 1e3 for s in outcome.ops_s]
    if workload.name == "serve_mix":
        import layers

        tail = layers.tail_percentile([s * 1e3 for s in outcome.ops_s])
        if tail is not None:
            details.update(tail_pct=tail[0], tail_ms=tail[1], tail_samples=tail[2])
    return metrics, details


def per_layer(workload, args):
    """An untraced pass, then a traced one; the per-layer metrics, run
    details, the recorder, both outcomes merged, and whether the layer
    self times account for the traced pass's wall time."""
    import layers

    base = workload.measure(args.seconds * UNTRACED_SHARE, 0, None)
    recorder = layers.Recorder()
    traced = workload.measure(args.seconds * (1 - UNTRACED_SHARE), 1, recorder)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(workload.layer_metrics(recorder, traced))
    ratio, unattributed = workload.accounting(recorder, traced)
    metrics["trace.accounted_ratio"] = ratio
    metrics["trace.unattributed_share"] = unattributed
    untraced_p50 = statistics.median(base.ops_s) if base.ops_s else 0.0
    traced_p50 = statistics.median(traced.ops_s) if traced.ops_s else 0.0
    if untraced_p50:
        metrics["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1) * 100
    details = {"untraced_p50_ms": untraced_p50 * 1e3,
               "traced_p50_ms": traced_p50 * 1e3,
               "accounting_tolerance": ACCOUNTING_TOLERANCE}
    traced.attempted += base.attempted
    traced.failed += base.failed
    return metrics, details, recorder, traced, abs(ratio - 1) <= ACCOUNTING_TOLERANCE


def write_artifacts(stem: str, workload, recorder) -> dict:
    import layers
    from repro.telemetry.export import write_chrome_trace

    OUT_DIR.mkdir(exist_ok=True)
    chrome = OUT_DIR / f"{stem}.chrome.json"
    write_chrome_trace(str(chrome), recorder.tracer)
    table = OUT_DIR / f"{stem}.layers.txt"
    lines = [f"{'span':40s} {'calls':>7s} {'self_ms':>12s} {'share':>7s}"]
    for name, calls, self_ms, share in layers.layer_table(recorder, workload.op_span):
        shown = "-" if share is None else f"{share:.1%}"
        lines.append(f"{name:40s} {calls:7d} {self_ms:12.3f} {shown:>7s}")
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"chrome_trace": str(chrome), "layer_table": str(table)}


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import suite

    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(suite.WORKLOADS)})", file=sys.stderr)
        return 2
    workload = suite.WORKLOADS[args.workload]()
    workload.setup(args.seed)
    accounted = True
    try:
        if args.probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            metrics, details, recorder, outcome, accounted = per_layer(workload, args)
            units = PER_LAYER
        else:
            outcome = workload.measure(args.seconds, 0, None)
            units = END_TO_END
    finally:
        workload.close()
    if args.trace:
        details.update(write_artifacts(
            f"{args.workload}-seed{args.seed}", workload, recorder))
    else:
        metrics, details = end_to_end(workload, outcome, args)
    result = {
        "correct": accounted and outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    env = environment(workload)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "environment": env, "details": details, **result},
                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env, "details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
