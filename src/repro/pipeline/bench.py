"""The durable-store benchmark behind ``python -m repro bench pipeline``.

Three measurements against a real on-disk SQLite store (WAL, fsync —
the configuration every pipeline run uses, not ``:memory:``):

- **enqueue** — idempotent batched admission throughput (jobs/sec
  through :meth:`JobStore.enqueue_batch`);
- **lease/complete** — claim-and-finish throughput: ``lease_next`` a
  batch, ``complete`` each job, repeat until drained — the store-side
  cost floor under every pipeline fan-out;
- **resume overhead** — the drug-design pipeline cold (all four stages
  execute) vs resumed over the same store (all four checkpoints replay),
  plus the byte-identity check between the two outputs.

Results go to ``BENCH_pipeline.json`` through :mod:`repro.benchutil`,
whose gates pass when every job reached ``done``, the resumed run was
byte-identical to the cold run, and the resume cost less than the cold
run — the CI smoke gate.
Absolute throughput is machine- (and fsync-) dependent; the cold/resume
ratio and the identity bit are the point.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Any

from repro.pipeline.store import JobStore
from repro.pipeline.workloads import run_pipeline_workload

__all__ = ["measure"]

_LEASE_BATCH = 32
#: Pipeline workers and seed of the cold and resumed runs.
_WORKERS = 4
_SEED = 7


def _bench_enqueue(store: JobStore, n_jobs: int) -> dict[str, Any]:
    specs = [{
        "run_id": "bench-enqueue",
        "stage": "work",
        "payload": {"index": index},
        "expected_score": float(index % 7),
    } for index in range(n_jobs)]
    started = time.perf_counter()
    records = store.enqueue_batch(specs)
    elapsed = time.perf_counter() - started
    created = sum(1 for _record, was_created in records if was_created)
    return {
        "jobs": n_jobs,
        "created": created,
        "wall_s": elapsed,
        "jobs_per_s": n_jobs / elapsed if elapsed > 0 else 0.0,
    }


def _bench_lease_complete(store: JobStore) -> dict[str, Any]:
    completed = 0
    started = time.perf_counter()
    while True:
        batch = store.lease_next("bench-worker", limit=_LEASE_BATCH)
        if not batch:
            break
        for job in batch:
            store.complete(job.job_id, {"ok": True})
            completed += 1
    elapsed = time.perf_counter() - started
    return {
        "jobs": completed,
        "wall_s": elapsed,
        "jobs_per_s": completed / elapsed if elapsed > 0 else 0.0,
    }


def measure(quick: bool = False) -> dict[str, Any]:
    """Run the store + resume benchmark and return the raw point."""
    n_jobs = 200 if quick else 2000
    params = {"ligands": 16 if quick else 48}
    workdir = tempfile.mkdtemp(prefix="repro-pipeline-bench-")
    try:
        with JobStore(os.path.join(workdir, "throughput.db")) as store:
            enqueue = _bench_enqueue(store, n_jobs)
            drain = _bench_lease_complete(store)
            counts = store.counts(run_id="bench-enqueue")

        with JobStore(os.path.join(workdir, "resume.db")) as store:
            cold_started = time.perf_counter()
            cold = run_pipeline_workload(
                "drugdesign", store, workers=_WORKERS, seed=_SEED,
                resume=False, params=params,
            )
            cold_s = time.perf_counter() - cold_started
        with JobStore(os.path.join(workdir, "resume.db")) as store:
            resumed_started = time.perf_counter()
            resumed = run_pipeline_workload(
                "drugdesign", store, workers=_WORKERS, seed=_SEED,
                resume=True, params=params,
            )
            resumed_s = time.perf_counter() - resumed_started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    point: dict[str, Any] = {"workers": _WORKERS, "seed": _SEED}
    point.update({f"enqueue_{key}": value for key, value in enqueue.items()})
    point.update({f"drain_{key}": value for key, value in drain.items()})
    point.update({
        "store_done": counts.get("done", 0),
        "cold_s": cold_s,
        "resumed_s": resumed_s,
        "resume_speedup": cold_s / resumed_s if resumed_s > 0 else 0.0,
        "resumed_stages": resumed.resumed_stages,
        "byte_identical": cold.output == resumed.output,
    })
    return point
