"""Fault-injection cost: recovery overhead vs the fault-free baseline.

Shape criteria (absolute numbers are machine-dependent, shapes are
not): a MapReduce job that loses workers and a shuffle payload still
completes within a small multiple of the fault-free run — the price of
recovery is re-executed *tasks*, never a stalled job — and with no plan
active the injection hooks cost one ``is None`` branch per site, so the
fault-free path stays at its pre-chaos speed.

``python -m repro bench faults`` times the same two jobs
(:mod:`repro.faults.bench`) and writes the ``BENCH_faults.json`` point.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.faults.bench import chaotic_job, fault_free_job
from repro.faults.chaos import run_chaos


@pytest.fixture(autouse=True)
def _faults_off():
    faults.disable()
    yield
    faults.disable()


def test_mapreduce_fault_free_baseline(benchmark):
    """Baseline: no plan active, hooks are a single branch each."""
    assert not faults.is_enabled()
    result = benchmark(fault_free_job)
    assert result.retries == 0


def test_mapreduce_recovery_overhead(benchmark):
    """Seed-7 chaos: worker deaths + shuffle corruption, recovered by
    re-execution.  The job must still finish with the right answer."""
    result, injector = benchmark(chaotic_job)
    reference = fault_free_job()
    assert result.output == reference.output
    assert injector.counts_by_kind().get("crash", 0) >= 1


def test_chaos_scenario_end_to_end(benchmark):
    """The full CLI-shaped scenario (plan + job + verification)."""
    report = benchmark(lambda: run_chaos("mapreduce", seed=7))
    assert report.ok and report.injected_total >= 2
