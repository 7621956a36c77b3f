"""Integration tests: fault hooks wired through every runtime.

The contracts under test: each runtime applies its injected faults
through its normal failure paths (OpenMP thread crash → ParallelError,
MapReduce task death → re-execution, MPI drop/delay/duplicate → the
transport, drug design → retryable transient), the chaos scenarios
recover to correct output, the injected-event log is byte-identical
across runs and across ``PYTHONHASHSEED`` values, the chaos CLI meets
the acceptance criteria, and the disabled hooks stay within the repo's
5% overhead bound on a fork-join region.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro import faults, telemetry
from repro.cli import main
from repro.faults.bench import chaotic_job, fault_free_job
from repro.faults import (
    FakeClock,
    FaultKind,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    RetryPolicy,
    TransientFault,
)
from repro.faults.chaos import named_plan, run_chaos
from repro.mapreduce.engine import MapReduceEngine, pairs_checksum
from repro.mapreduce.jobs import word_count_job
from repro.mpi.comm import Communicator, mpi_run
from repro.openmp.runtime import OpenMP, ParallelError


@pytest.fixture(autouse=True)
def _sessions_off():
    faults.disable()
    telemetry.disable()
    yield
    faults.disable()
    telemetry.disable()


DOCUMENTS = [(i, text) for i, text in enumerate(
    ["the fork joins the team", "a barrier waits for every thread",
     "map shuffle reduce", "the master re executes failed tasks"]
)]


class TestOpenMPWiring:
    def test_thread_crash_surfaces_as_parallel_error(self):
        plan = FaultPlan(rules=(
            FaultRule("omp.thread", FaultKind.CRASH, at=(0,),
                      where={"thread": 2}),
        ))
        with faults.inject(plan) as injector:
            with pytest.raises(ParallelError) as info:
                OpenMP(4).parallel(lambda ctx: ctx.thread_num)
            assert injector.log_lines() == ["omp.thread|2|0|crash|r0"]
        (tid, exc) = info.value.failures[0]
        assert tid == 2 and isinstance(exc, InjectedCrash)
        # The same region runs clean once the plan's one shot is spent.
        with faults.inject(plan):
            pass
        assert OpenMP(4).parallel(lambda ctx: ctx.thread_num) == [0, 1, 2, 3]

    def test_region_retry_policy_recovers_from_crash(self):
        plan = FaultPlan(rules=(
            FaultRule("omp.thread", FaultKind.CRASH, at=(0,),
                      where={"thread": 1}),
        ))
        policy = RetryPolicy(max_attempts=3, base_s=0.0, cap_s=0.0,
                             clock=FakeClock(), retry_on=(ParallelError,))
        with faults.inject(plan) as injector:
            results = policy.call(
                lambda: OpenMP(4).parallel(lambda ctx: ctx.thread_num))
        assert results == [0, 1, 2, 3]
        assert injector.counts_by_kind() == {"crash": 1}

    def test_barrier_stall_delays_but_preserves_semantics(self):
        clock = FakeClock()
        plan = FaultPlan(rules=(
            FaultRule("omp.barrier", FaultKind.STALL, at=(0,),
                      where={"thread": 0}, delay_s=5.0),
        ))
        injector = faults.FaultInjector(plan, clock=clock)
        faults.enable(injector)
        try:
            counts = [0] * 4

            def body(ctx):
                counts[ctx.thread_num] += 1
                ctx.barrier()
                return counts[ctx.thread_num]

            assert OpenMP(4).parallel(body) == [1, 1, 1, 1]
        finally:
            faults.disable()
        assert clock.slept == [5.0]          # the stall, on virtual time
        assert injector.log_lines() == ["omp.barrier|0|0|stall|r0"]


class TestMapReduceWiring:
    def test_task_death_is_retried_to_the_right_answer(self):
        plan = FaultPlan(rules=(
            FaultRule("mr.task", FaultKind.CRASH, at=(0,),
                      where={"phase": "map", "task": 0}),
        ))
        engine = MapReduceEngine(n_workers=4, max_attempts=3)
        spec = word_count_job()
        with faults.inject(plan) as injector:
            result = engine.run(spec, DOCUMENTS)
            assert injector.log_lines() == ["mr.task|map:0|0|crash|r0"]
        reference = engine.run_sequential(spec, DOCUMENTS)
        assert result.output == reference.output
        assert result.retries >= 1

    def test_bench_jobs_agree_under_the_seed_7_plan(self):
        """``repro bench faults`` times these two jobs; the chaotic one
        must recover to the fault-free answer."""
        clean = fault_free_job()
        assert clean.retries == 0
        result, injector = chaotic_job()
        assert result.output == clean.output
        assert injector.counts_by_kind().get("crash", 0) >= 1

    def test_shuffle_corruption_is_detected_and_reexecuted(self):
        plan = FaultPlan(rules=(
            FaultRule("mr.shuffle", FaultKind.CORRUPT, at=(0,),
                      where={"task": 1}),
        ))
        engine = MapReduceEngine(n_workers=4, max_attempts=3)
        spec = word_count_job()
        with telemetry.session() as session:
            with faults.inject(plan) as injector:
                result = engine.run(spec, DOCUMENTS)
                assert injector.log_lines() == ["mr.shuffle|map:1|0|corrupt|r0"]
        reference = engine.run_sequential(spec, DOCUMENTS)
        assert result.output == reference.output
        detected = session.tracer.events_named("mr.shuffle.corruption_detected")
        assert len(detected) == 1

    def test_pairs_checksum_detects_tampering(self):
        pairs = [("b", 1), ("a", 2), ("a", 1)]
        assert pairs_checksum(pairs) == pairs_checksum(list(pairs))
        assert pairs_checksum(pairs) != pairs_checksum(pairs[:2])
        assert pairs_checksum(pairs) != pairs_checksum([("b", 1), ("a", 2), ("a", 9)])


class TestMPIWiring:
    @staticmethod
    def _two_rank(program):
        return mpi_run(2, program)

    def test_drop_removes_exactly_the_planned_message(self):
        plan = FaultPlan(rules=(
            FaultRule("mpi.send", FaultKind.DROP, at=(0,),
                      where={"dest": 1}),
        ))

        def program(comm: Communicator):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=0)    # dropped
                comm.send("b", dest=1, tag=0)
                return None
            return comm.recv(source=0, tag=0)

        with faults.inject(plan) as injector:
            results = self._two_rank(program)
            assert injector.log_lines() == ["mpi.send|0->1|0|drop|r0"]
        assert results[1] == "b"

    def test_duplicate_delivers_twice(self):
        plan = FaultPlan(rules=(
            FaultRule("mpi.send", FaultKind.DUPLICATE, at=(0,),
                      where={"dest": 1}),
        ))

        def program(comm: Communicator):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=0)
                return None
            return (comm.recv(source=0, tag=0), comm.recv(source=0, tag=0))

        with faults.inject(plan):
            results = self._two_rank(program)
        assert results[1] == ("x", "x")

    def test_delay_reorders_behind_later_traffic(self):
        plan = FaultPlan(rules=(
            FaultRule("mpi.send", FaultKind.DELAY, at=(0,),
                      where={"dest": 1}, delay_slots=4),
        ))

        def program(comm: Communicator):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=0)     # delayed
                comm.send("second", dest=1, tag=0)
                comm.barrier()
                return None
            comm.barrier()                             # both sends are in
            return (comm.recv(source=0, tag=0), comm.recv(source=0, tag=0))

        with faults.inject(plan):
            results = self._two_rank(program)
        assert results[1] == ("second", "first")


class TestDrugDesignWiring:
    def test_transient_score_failure_is_keyed_by_ligand(self):
        from repro.drugdesign.ligands import DEFAULT_PROTEIN
        from repro.drugdesign.scoring import lcs_score
        from repro.drugdesign.solvers import score_ligand

        plan = FaultPlan(rules=(
            FaultRule("dd.score", FaultKind.EXCEPTION, at=(0,),
                      where={"ligand": "acge"}),
        ))
        with faults.inject(plan) as injector:
            with pytest.raises(TransientFault):
                score_ligand("acge", DEFAULT_PROTEIN)
            # Second invocation of the *same* ligand coordinate succeeds.
            assert score_ligand("acge", DEFAULT_PROTEIN) == \
                lcs_score("acge", DEFAULT_PROTEIN)
            # Other ligands never see the fault.
            assert score_ligand("bd", DEFAULT_PROTEIN) == \
                lcs_score("bd", DEFAULT_PROTEIN)
            assert injector.log_lines() == ["dd.score|acge|0|exception|r0"]


class TestChaosScenarios:
    @pytest.mark.parametrize("workload", ["mapreduce", "openmp", "mpi", "drugdesign"])
    def test_scenario_recovers(self, workload):
        report = run_chaos(workload, seed=7)
        assert report.ok, report.render()
        assert report.injected_total >= 1
        assert report.recovered >= 1

    @pytest.mark.parametrize("workload", ["mapreduce", "openmp", "mpi", "drugdesign"])
    def test_same_seed_replays_byte_identical_logs(self, workload):
        first = run_chaos(workload, seed=11)
        second = run_chaos(workload, seed=11)
        assert "\n".join(first.log_lines) == "\n".join(second.log_lines)
        assert first.injected_by_kind == second.injected_by_kind

    def test_different_seeds_differ_somewhere(self):
        logs = {tuple(run_chaos("drugdesign", seed=s).log_lines)
                for s in (1, 2, 3, 4, 5)}
        assert len(logs) > 1                  # seeded, not hard-coded

    def test_named_plan_matches_what_run_chaos_uses(self):
        plan = named_plan("mapreduce", seed=7)
        report = run_chaos("mapreduce", seed=7, plan=plan)
        assert report.ok


class TestHashSeedIndependence:
    def test_log_is_identical_across_pythonhashseed(self, tmp_path):
        """The replay contract survives hash randomization: the injected
        event log depends only on (plan, seed), never on builtin hash."""
        script = (
            "from repro.faults.chaos import run_chaos\n"
            "for w in ('mapreduce', 'drugdesign'):\n"
            "    r = run_chaos(w, seed=7)\n"
            "    print('\\n'.join(r.log_lines))\n"
        )
        outputs = []
        for hash_seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=120,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert "crash" in outputs[0]


class TestChaosCLI:
    def test_acceptance_mapreduce_seed_7(self, capsys):
        """`python -m repro chaos mapreduce --seed 7`: ≥1 worker death,
        ≥1 message-level fault, recovered to correct output."""
        assert main(["chaos", "mapreduce", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "crash" in out                 # worker death
        assert "corrupt" in out               # message-level (shuffle) fault
        assert "output matches fault-free sequential run: True" in out

    def test_list_and_unknown_workload(self, capsys):
        assert main(["chaos", "--list"]) == 0
        assert "mapreduce" in capsys.readouterr().out
        assert main(["chaos", "nope"]) == 2

    def test_trace_export_of_a_chaotic_run(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        assert main(["chaos", "openmp", "--seed", "7",
                     "--trace", str(out)]) == 0
        assert out.exists()
        import json
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "fault.injected" in names      # chaos is on the timeline


# -- disabled-mode overhead ---------------------------------------------------


def _time_fork_join(repeats: int) -> float:
    omp = OpenMP(num_threads=4)

    def body(ctx) -> None:
        ctx.barrier()

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        omp.parallel(body)
        best = min(best, time.perf_counter() - start)
    return best


class TestDisabledOverhead:
    def test_disabled_fault_hooks_within_5_percent(self):
        """Same bound and method as the telemetry overhead test: the
        shipped disabled hooks (one `is None` branch per site) vs hooks
        stubbed out entirely, interleaved best-of-N on a fork-join
        region."""
        from repro.faults import hooks

        assert not faults.is_enabled()
        stubs = {
            "fire": lambda *a, **k: None,
            "message": lambda *a, **k: None,
            "corrupt": lambda *a, **k: False,
            "enabled": lambda: False,
        }
        for _attempt in range(3):
            shipped_best = float("inf")
            stubbed_best = float("inf")
            for _ in range(5):
                shipped_best = min(shipped_best, _time_fork_join(3))
                with pytest.MonkeyPatch.context() as mp:
                    for name, stub in stubs.items():
                        mp.setattr(hooks, name, stub)
                    stubbed_best = min(stubbed_best, _time_fork_join(3))
            ratio = shipped_best / stubbed_best
            if ratio <= 1.05:
                break
        assert ratio <= 1.05, (
            f"disabled fault hooks added {(ratio - 1) * 100:.1f}% "
            f"({shipped_best * 1e6:.0f}us vs {stubbed_best * 1e6:.0f}us)"
        )
