"""The process-pool scheduler backend: determinism, transport, tuning.

``mode="mp"`` must be an execution vehicle and nothing more: the
executor makes the same (worker, task) decisions as threaded mode, so
the canonical event log, the statistics line, and the rendered report
stay byte-identical across modes — in this process and across CLI
subprocesses.  The transport (``repro.procpool``) must round-trip
values, shared-memory arrays, and exceptions faithfully, and the
dispatch-overhead autotuner must be pure arithmetic.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import procpool
from repro.drugdesign.ligands import generate_ligands, generate_protein
from repro.drugdesign.solvers import solve_sched, solve_sequential
from repro.sched.core import Call, SchedError
from repro.sched.executor import WorkStealingExecutor
from repro.sched.tune import autotune_chunk, measure_dispatch_overhead_s
from repro.sched.workloads import run_sched_workload


def _mp_cli(extra_args, hashseed="1"):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run(
        [sys.executable, "-m", "repro", "sched", *extra_args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    ).stdout


# -- the transport ------------------------------------------------------------


def _add(a, b):
    return a + b


def _boom():
    raise ValueError("child says no")


def _total(array):
    return float(array.sum())


def test_pool_runs_calls_and_orders_scatter():
    with procpool.ProcessPool(2) as pool:
        assert pool.run(0, Call(_add, 2, 3)) == 5
        assert pool.run(1, Call(_add, b=4, a=6)) == 10
        results = pool.scatter([Call(_add, i, i) for i in range(7)])
        assert results == [2 * i for i in range(7)]


def test_pool_reraises_child_exceptions():
    with procpool.ProcessPool(2) as pool:
        with pytest.raises(ValueError, match="child says no"):
            pool.run(0, Call(_boom))
        # The worker survives the exception and keeps serving.
        assert pool.run(0, Call(_add, 1, 1)) == 2


def test_pool_ships_large_arrays_via_shared_memory():
    big = np.arange(procpool.SHM_MIN_BYTES // 8 + 16, dtype=np.float64)
    shipped, segments = procpool.export_call(Call(_total, big))
    try:
        assert len(segments) == 1            # above threshold: one segment
        assert isinstance(shipped.args[0], procpool._ShmRef)
    finally:
        procpool.release_segments(segments)
    small = np.arange(8, dtype=np.float64)
    same, none = procpool.export_call(Call(_total, small))
    assert none == [] and same.args[0] is small   # below threshold: pickled
    with procpool.ProcessPool(2) as pool:
        assert pool.run(0, Call(_total, big)) == float(big.sum())


def test_pool_drops_a_timed_out_calls_late_reply():
    with procpool.ProcessPool(1) as pool:
        with pytest.raises(procpool.ProcPoolError, match="timed out"):
            pool.run(0, Call(time.sleep, 0.5), timeout=0.1)
        # The sleep's reply (None) arrives while this call waits; it
        # belongs to the timed-out call and must not be taken as this one's.
        assert pool.run(0, Call(_add, 1, 1)) == 2
        assert pool.run(0, Call(_add, 2, 2)) == 4


def test_scatter_drops_a_timed_out_calls_late_reply():
    with procpool.ProcessPool(2) as pool:
        with pytest.raises(procpool.ProcPoolError, match="timed out"):
            pool.run(1, Call(time.sleep, 0.5), timeout=0.1)
        assert pool.scatter([Call(_add, i, 10) for i in range(4)]) == [10, 11, 12, 13]
        with pytest.raises(procpool.ProcPoolError, match="timed out"):
            pool.scatter([Call(_add, 0, 0), Call(time.sleep, 0.5)], timeout=0.1)
        assert pool.run(1, Call(_add, 3, 3)) == 6


def test_pool_rejects_use_after_close():
    pool = procpool.ProcessPool(2)
    pool.close()
    pool.close()                              # idempotent
    with pytest.raises(procpool.ProcPoolError):
        pool.run(0, Call(_add, 1, 1))


# -- the executor backend -----------------------------------------------------


def _stepping_run(mode, seed=7):
    executor = WorkStealingExecutor(n_workers=3, seed=seed, mode=mode)
    try:
        executor.submit_batch(
            [Call(_add, i, i + 1) for i in range(12)], name="t"
        )
        executor.drain()
        return executor.log_lines(), executor.stats()
    finally:
        executor.close()


def test_mp_event_log_byte_identical_to_threaded():
    threaded_log, threaded_stats = _stepping_run("threaded")
    mp_log, mp_stats = _stepping_run("mp")
    assert mp_log == threaded_log
    assert mp_stats.executed == threaded_stats.executed == 12
    assert mp_stats.mode == "mp" and mp_stats.mp_shipped == 12
    assert threaded_stats.mp_shipped == 0


def test_mp_closures_run_inline_parent_side():
    executor = WorkStealingExecutor(n_workers=2, seed=3, mode="mp")
    try:
        seen = []
        executor.submit_batch(
            [lambda i=i: seen.append(i) or i for i in range(5)], name="t"
        )
        executor.drain()
        stats = executor.stats()
        assert sorted(seen) == list(range(5))     # side effects visible here
        assert stats.mp_inline == 5 and stats.mp_shipped == 0
    finally:
        executor.close()


def test_mp_serving_mode_refused():
    executor = WorkStealingExecutor(n_workers=2, mode="mp",
                                    deterministic=False)
    with pytest.raises(SchedError):
        executor.start()
    executor.close()


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        WorkStealingExecutor(n_workers=2, mode="gpu")


@pytest.mark.parametrize("workload", ["drugdesign", "mapreduce", "openmp"])
def test_sched_workload_reports_identical_across_modes(workload):
    renders = [
        run_sched_workload(workload, workers=2, seed=11, mode=mode).render()
        for mode in ("threaded", "mp")
    ]
    assert renders[0] == renders[1]


def test_mode_extends_cache_key_but_threaded_key_is_unchanged(tmp_path):
    from repro.sched.cache import ResultCache

    cache = ResultCache(directory=str(tmp_path))
    cold = run_sched_workload("drugdesign", workers=2, seed=5, cache=cache,
                              mode="mp")
    assert cold.cache_misses == 1
    warm = run_sched_workload("drugdesign", workers=2, seed=5, cache=cache,
                              mode="mp")
    assert warm.cache_hits == 1
    assert (warm.output_lines, warm.stats, warm.log_lines) == (
        cold.output_lines, cold.stats, cold.log_lines
    )
    # Threaded must not hit the mp entry: its stats payload differs.
    threaded = run_sched_workload("drugdesign", workers=2, seed=5,
                                  cache=cache, mode="threaded")
    assert threaded.cache_misses == 2
    assert threaded.stats["mp_shipped"] == 0


def test_cli_mp_stdout_byte_identical_to_threaded():
    base = ["drugdesign", "--workers", "2", "--seed", "7"]
    threaded = _mp_cli(base + ["--mode", "threaded"])
    mp = _mp_cli(base + ["--mode", "mp"], hashseed="4242")
    assert mp == threaded


# -- solve_sched over mp + the chunk autotuner --------------------------------


def test_solve_sched_mp_matches_sequential_all_chunks():
    ligands = generate_ligands(40, 7, seed=21)
    protein = generate_protein(48, seed=22)
    oracle = solve_sequential(ligands, protein)
    for chunk in (1, 8, "auto"):
        executor = WorkStealingExecutor(n_workers=2, seed=9, mode="mp")
        try:
            result = solve_sched(ligands, protein, executor, chunk=chunk)
            assert result.same_answer_as(oracle), chunk
        finally:
            executor.close()


def test_solve_sched_rejects_bad_chunk():
    executor = WorkStealingExecutor(n_workers=2, seed=1)
    try:
        for bad in (0, -3, True, "adaptive"):
            with pytest.raises(ValueError):
                solve_sched(["abc"], "abcd", executor, chunk=bad)
    finally:
        executor.close()


def test_autotune_chunk_arithmetic():
    # Overhead floor: k >= d / (t * p).
    assert autotune_chunk(0.0005, 0.001, 100, 4) == 5
    assert autotune_chunk(0.0001, 0.01, 100, 4) == 1
    # Worker cap: never starve a worker of its chunk.
    assert autotune_chunk(0.001, 0.0001, 100, 4) == 25
    assert autotune_chunk(1.0, 0.0001, 10, 4) == 3
    # Degenerate measurements fall back to ~4 chunks per worker.
    assert autotune_chunk(0.0, 0.001, 100, 4) == 7
    assert autotune_chunk(0.001, -1.0, 100, 4) == 7
    # Edge cases and validation.
    assert autotune_chunk(0.001, 0.001, 0, 4) == 1
    with pytest.raises(ValueError):
        autotune_chunk(0.001, 0.001, 10, 4, target_overhead=1.5)


def test_measured_dispatch_overhead_is_positive_and_cached():
    first = measure_dispatch_overhead_s(mode="threaded", n_workers=2,
                                        n_probe=8)
    again = measure_dispatch_overhead_s(mode="threaded", n_workers=2,
                                        n_probe=8)
    assert first > 0.0
    assert again == first                      # per-process cache


# -- run_job / registry plumbing ----------------------------------------------


def test_run_job_accepts_mode_param_and_rejects_bad_values():
    from repro import workloads

    payload = workloads.run_job("sched", "drugdesign",
                                {"workers": 2, "seed": 7, "mode": "mp"})
    baseline = workloads.run_job("sched", "drugdesign",
                                 {"workers": 2, "seed": 7})
    assert payload["output"] == baseline["output"]
    assert payload["log"] == baseline["log"]
    with pytest.raises(ValueError):
        workloads.validate_params("sched", {"mode": "fibers"})
    with pytest.raises(ValueError):
        workloads.validate_params("sched", {"mode": 3})
    with pytest.raises(ValueError):
        workloads.validate_params("pipeline", {"mode": "mp"})
