"""Speculative execution: straggler detection, backup tasks, identity.

The invariant under test everywhere: speculation may change *latency*,
never *results* or the stepping event log.  The straggler suites run on
a :class:`~repro.faults.clock.ScaledClock`, so a "0.8 second" stall is
a few wall milliseconds and CI never real-sleeps.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import subprocess
import sys
import threading

import pytest

from repro.faults.clock import ScaledClock
from repro.sched.core import Call
from repro.sched.executor import WorkStealingExecutor
from repro.sched.spec import (
    SpecEngine,
    SpecPolicy,
    is_backup,
    obsolete_event,
)
from repro.sched.workloads import run_sched_workload

_SCALE = 0.05                       # 1 nominal second = 50 wall ms


def _clocked_executor(workers=4, clock=None, policy=None, **kwargs):
    clock = clock if clock is not None else ScaledClock(_SCALE)
    executor = WorkStealingExecutor(n_workers=workers, seed=7,
                                    deterministic=False, **kwargs)
    executor.speculate(
        policy if policy is not None else SpecPolicy(k=2.0, min_age_s=0.2),
        clock=clock,
    )
    return executor, clock


def _stall_body(index, stall_s, clock):
    """A pure task that stalls only on a 'slow machine' (the primary)."""
    if stall_s > 0.0 and not is_backup():
        kill = obsolete_event() or threading.Event()
        clock.wait(kill, stall_s)
    return index * index


# -- policy and engine unit behaviour -----------------------------------------


def test_spec_policy_validates():
    with pytest.raises(ValueError):
        SpecPolicy(k=0.0)
    with pytest.raises(ValueError):
        SpecPolicy(min_age_s=-1.0)
    with pytest.raises(ValueError):
        SpecPolicy(min_completed=-1)
    with pytest.raises(ValueError):
        SpecPolicy(max_backups=0)
    assert SpecPolicy().k == 2.0


def test_threshold_needs_samples_then_tracks_median():
    engine = SpecEngine(SpecPolicy(k=2.0, min_age_s=0.01, min_completed=3))
    assert engine.threshold() is None
    for runtime in (1.0, 2.0, 3.0, 4.0, 5.0):
        engine._record_runtime(runtime)
    assert engine.threshold() == pytest.approx(2.0 * 3.0)


def test_threshold_floor_is_min_age():
    engine = SpecEngine(SpecPolicy(k=2.0, min_age_s=0.5, min_completed=1))
    engine._record_runtime(0.001)
    assert engine.threshold() == pytest.approx(0.5)


# -- the straggler suite (scaled clock, no real sleeps) -----------------------


def test_backup_beats_waiting_for_the_stall():
    executor, clock = _clocked_executor()
    try:
        tasks = [Call(_stall_body, i, 6.0 if i == 5 else 0.0, clock)
                 for i in range(12)]
        start = clock.monotonic()
        handles = executor.submit_batch(tasks, name="spec.test")
        executor.drain()
        wall = clock.monotonic() - start
        values = [handle.result() for handle in handles]
        stats = executor.stats()
    finally:
        executor.close()
    assert values == [i * i for i in range(12)]
    assert stats.backups_launched >= 1
    assert stats.backups_won >= 1
    assert wall < 6.0                  # never waited out the full stall


def test_no_stragglers_means_no_backups():
    executor, clock = _clocked_executor()
    try:
        values = executor.map(
            [Call(_stall_body, i, 0.0, clock) for i in range(16)],
            name="spec.healthy",
        )
        stats = executor.stats()
    finally:
        executor.close()
    assert values == [i * i for i in range(16)]
    assert stats.backups_launched == 0
    assert stats.backups_won == 0


def test_results_identical_with_and_without_speculation():
    outcomes = {}
    for speculate in (False, True):
        clock = ScaledClock(_SCALE)
        executor = WorkStealingExecutor(n_workers=4, seed=7,
                                        deterministic=False)
        if speculate:
            executor.speculate(SpecPolicy(k=2.0, min_age_s=0.2), clock=clock)
        try:
            outcomes[speculate] = executor.map(
                [Call(_stall_body, i, 4.0 if i in (2, 9) else 0.0, clock)
                 for i in range(12)],
                name="spec.identity",
            )
        finally:
            executor.close()
    assert outcomes[False] == outcomes[True]


def test_primary_win_counts_a_cancelled_or_lost_backup():
    # A stall short enough that the primary can still win sometimes:
    # whoever commits first, exactly one result per task is returned
    # and launched == won + lost + cancelled.
    executor, clock = _clocked_executor(
        policy=SpecPolicy(k=2.0, min_age_s=0.1)
    )
    try:
        values = executor.map(
            [Call(_stall_body, i, 0.3 if i == 3 else 0.0, clock)
             for i in range(10)],
            name="spec.race",
        )
        engine = executor.spec_engine
        counters = engine.counters()
    finally:
        executor.close()
    assert values == [i * i for i in range(10)]
    accounted = (counters["backups_won"] + counters["backups_lost"]
                 + counters["backups_cancelled"])
    assert counters["backups_launched"] == accounted


def test_backup_failure_defers_to_the_primary():
    def flaky(index, clock):
        if is_backup():
            raise RuntimeError("backup host died")
        kill = obsolete_event() or threading.Event()
        if index == 4:
            clock.wait(kill, 3.0)
        return index + 100

    clock = ScaledClock(_SCALE)
    executor = WorkStealingExecutor(n_workers=4, seed=7,
                                    deterministic=False)
    executor.speculate(SpecPolicy(k=2.0, min_age_s=0.2), clock=clock)
    try:
        values = executor.map(
            [Call(flaky, i, clock) for i in range(8)], name="spec.flaky"
        )
        stats = executor.stats()
    finally:
        executor.close()
    assert values == [i + 100 for i in range(8)]
    assert stats.backups_won == 0      # every backup crashed; primaries won
    assert stats.failed == 0           # a failed backup is not a failed task


def test_stats_dict_carries_backup_counters():
    executor, clock = _clocked_executor()
    try:
        executor.map([Call(_stall_body, i, 5.0 if i == 1 else 0.0, clock)
                      for i in range(8)], name="spec.stats")
        as_dict = executor.stats().as_dict()
    finally:
        executor.close()
    assert as_dict["backups_launched"] >= 1
    assert as_dict["backups_won"] >= 1
    assert isinstance(as_dict["backup_time_saved_s"], float)


# -- stepping mode: the canonical winner rule ---------------------------------


def test_stepping_render_identical_with_speculation():
    plain = run_sched_workload("drugdesign", workers=4, seed=7)
    spec = run_sched_workload("drugdesign", workers=4, seed=7,
                              speculate=True)
    assert spec.render() == plain.render()
    assert spec.log_lines == plain.log_lines


def test_stepping_mode_never_launches_backups():
    executor = WorkStealingExecutor(n_workers=4, seed=7)   # deterministic
    executor.speculate(SpecPolicy(k=2.0, min_age_s=0.0, min_completed=0))
    try:
        values = executor.map([Call(_stall_body, i, 0.0, ScaledClock(_SCALE))
                               for i in range(8)], name="spec.stepping")
        stats = executor.stats()
    finally:
        executor.close()
    assert values == [i * i for i in range(8)]
    assert stats.backups_launched == 0


# -- cross-process determinism (the acceptance contract) ----------------------


def _cli(extra_args, hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run(
        [sys.executable, "-m", "repro", "sched", *extra_args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    ).stdout


def test_cli_speculate_stdout_identical_across_hashseeds():
    args = ["drugdesign", "--workers", "4", "--seed", "7", "--speculate"]
    out_a = _cli(args, hashseed="1")
    out_b = _cli(args, hashseed="4242")
    assert out_a == out_b
    plain = _cli(args[:-1], hashseed="3")
    assert out_a == plain              # speculation cannot move the log


# -- bench-gate honesty -------------------------------------------------------


def test_trajectory_renders_skipped_gate_as_dash(tmp_path):
    from repro.benchutil import render_trajectory

    (tmp_path / "BENCH_mp.json").write_text(
        '{"ok": true, "gate_applied": false,'
        ' "timestamp": "2026-01-01T00:00:00",'
        ' "stencil_speedup": 0.9, "lcs_speedup": 0.9, "cores": 1}\n'
    )
    text = render_trajectory(str(tmp_path))
    line = next(l for l in text.splitlines() if l.startswith("mp"))
    assert "—" in line                 # single-core skip, not an earned pass
    assert " ok " not in line


# -- the benchmark harness (scaled clock) -------------------------------------


def test_spec_bench_quick_passes_its_gate(tmp_path):
    from repro.benchutil import SUITES, run_suite
    from repro.sched.specbench import measure

    suite = dataclasses.replace(
        SUITES["spec"],
        measure=functools.partial(measure, clock=ScaledClock(_SCALE)))
    out = tmp_path / "BENCH_spec.json"
    point = run_suite(suite, quick=True, out_path=str(out))
    assert point["ok"] is True
    assert point["gate_applied"] is True
    assert point["results_identical"] is True
    assert point["stepping_log_identical"] is True
    assert point["spec_p99_s"] < point["base_p99_s"]
    assert point["backups_won"] >= 1
    assert out.exists()
