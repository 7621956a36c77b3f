"""Runtime-integration tests for telemetry and its satellite fixes.

Covers the acceptance checklist items that span modules: MapReduce
retry events appear exactly ``attempts - 1`` times under injected
failures, partitioning is stable across interpreter hash seeds,
timeouts resolve constructor > env > default, MPI emits deadlock and
near-deadlock telemetry, the disabled-mode hooks add ≤5% to a
fork-join patternlet, and the ``repro trace`` CLI ships a Chrome trace
containing spans from at least two runtimes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro import config, telemetry
from repro.cli import main
from repro.mapreduce.engine import MapReduceEngine, TaskFailure, stable_partition
from repro.mapreduce.jobs import word_count_job
from repro.mapreduce.stragglers import SlowTask, SpeculativeEngine
from repro.mpi.comm import (
    DEADLOCK_TIMEOUT_S,
    Communicator,
    MPIError,
    mpi_run,
)
from repro.openmp.runtime import JOIN_TIMEOUT_S, OpenMP
from repro.telemetry.export import to_chrome_trace

_DOCS = [
    (0, "alpha beta alpha"),
    (1, "beta gamma delta"),
    (2, "gamma alpha beta"),
    (3, "delta delta alpha"),
]


@pytest.fixture(autouse=True)
def _telemetry_off():
    telemetry.disable()
    yield
    telemetry.disable()


# -- MapReduce retries are observable, exactly --------------------------------


class TestRetryEvents:
    def test_retry_events_equal_attempts_minus_one(self):
        failures = [
            TaskFailure("map", 0, 0),
            TaskFailure("map", 0, 1),     # same task dies twice
            TaskFailure("reduce", 2, 0),
        ]
        with telemetry.session() as session:
            engine = MapReduceEngine(n_workers=3, failures=failures)
            result = engine.run(word_count_job(n_reduce_tasks=4), list(_DOCS))
        assert result.retries == len(failures) == 3
        retry_instants = session.tracer.events_named("mr.retry")
        assert len(retry_instants) == result.retries
        assert session.metrics.counter("mr.retries").value == 3
        # The counter-series samples ratchet up to the final total.
        samples = [e.args["value"]
                   for e in session.tracer.events_named("mr.retries")]
        assert samples == sorted(samples) and samples[-1] == 3
        killed = session.tracer.events_named("mr.task.killed")
        assert len(killed) == len(failures)

    def test_no_retry_events_on_clean_run(self):
        with telemetry.session() as session:
            result = MapReduceEngine(n_workers=2).run(
                word_count_job(n_reduce_tasks=2), list(_DOCS))
        assert result.retries == 0
        assert session.tracer.events_named("mr.retry") == []

    def test_task_spans_nest_under_job_span(self):
        with telemetry.session() as session:
            MapReduceEngine(n_workers=2).run(
                word_count_job(n_reduce_tasks=2), list(_DOCS))
        (job,) = [s for s in session.tracer.spans if s.name == "mr.job"]
        tasks = [s for s in session.tracer.spans
                 if s.name in ("mr.map.task", "mr.reduce.task")]
        assert len(tasks) == len(_DOCS) + 2
        assert {t.parent_id for t in tasks} == {job.span_id}


# -- stable partitioning across hash seeds ------------------------------------


_PARTITION_SCRIPT = """\
import json, sys
from repro.mapreduce.engine import stable_partition
keys = ["alpha", "beta", "", "a b c", 7, -3, 2.5, ("k", 1), None, True]
print(json.dumps([stable_partition(k) % 8 for k in keys]))
"""


def _partition_under_seed(seed: str) -> list[int]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.path.abspath("src")
    out = subprocess.run(
        [sys.executable, "-c", _PARTITION_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout)


class TestStablePartitioning:
    def test_same_buckets_across_interpreter_hash_seeds(self):
        runs = [_partition_under_seed(seed) for seed in ("0", "1", "424242")]
        assert runs[0] == runs[1] == runs[2]

    def test_stable_partition_in_process(self):
        assert stable_partition("alpha") == stable_partition("alpha")
        assert stable_partition(("k", 1)) == stable_partition(("k", 1))
        # Different keys should spread (not a strict requirement of the
        # contract, but a collapsed-to-constant implementation is a bug).
        buckets = {stable_partition(f"w{i}") % 8 for i in range(64)}
        assert len(buckets) >= 4

    def test_engine_bucketing_matches_stable_partition(self):
        """With no custom partitioner, a key lands in the reduce bucket
        ``stable_partition(k) % R`` — observable via which reduce task's
        injected failure forces a retry of that key's bucket."""
        spec = word_count_job(n_reduce_tasks=4)
        assert spec.partitioner is None          # engine falls back
        target = stable_partition("alpha") % 4
        engine = MapReduceEngine(
            n_workers=2, failures=[TaskFailure("reduce", target, 0)])
        result = engine.run(spec, [(0, "alpha")])
        assert result.retries == 1
        assert dict(result.output) == {"alpha": 1}


# -- timeout configuration ----------------------------------------------------


class TestTimeoutConfig:
    def test_constructor_beats_env_and_default(self, monkeypatch):
        monkeypatch.setenv(config.REPRO_TIMEOUT_ENV, "123")
        assert OpenMP(join_timeout_s=5.0).join_timeout_s == 5.0

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(config.REPRO_TIMEOUT_ENV, "7.5")
        assert OpenMP().join_timeout_s == 7.5

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(config.REPRO_TIMEOUT_ENV, raising=False)
        assert OpenMP().join_timeout_s == JOIN_TIMEOUT_S

    def test_invalid_values_raise(self, monkeypatch):
        with pytest.raises(ValueError):
            OpenMP(join_timeout_s=0)
        monkeypatch.setenv(config.REPRO_TIMEOUT_ENV, "soon")
        with pytest.raises(ValueError):
            OpenMP()
        monkeypatch.setenv(config.REPRO_TIMEOUT_ENV, "-1")
        with pytest.raises(ValueError):
            OpenMP()

    def test_resolve_timeout_s_chain(self, monkeypatch):
        monkeypatch.delenv(config.REPRO_TIMEOUT_ENV, raising=False)
        assert config.resolve_timeout_s(None, 9.0) == 9.0
        monkeypatch.setenv(config.REPRO_TIMEOUT_ENV, "2")
        assert config.resolve_timeout_s(None, 9.0) == 2.0
        assert config.resolve_timeout_s(4.0, 9.0) == 4.0

    def test_mpi_world_timeout_configurable(self, monkeypatch):
        monkeypatch.setenv(config.REPRO_TIMEOUT_ENV, "0.2")

        def lonely_recv(comm: Communicator):
            if comm.rank == 0:
                return comm.recv(source=1)   # nobody ever sends
            return None

        start = time.monotonic()
        with pytest.raises(MPIError):
            mpi_run(2, lonely_recv)
        # The env-shortened ceiling applies: far below the 30s default.
        assert time.monotonic() - start < DEADLOCK_TIMEOUT_S / 2

    def test_openmp_still_runs_with_custom_timeout(self):
        omp = OpenMP(num_threads=3, join_timeout_s=10.0)
        seen: list[int] = []

        def body(ctx) -> None:
            with ctx.critical():
                seen.append(ctx.thread_num)
            ctx.barrier()

        omp.parallel(body)
        assert sorted(seen) == [0, 1, 2]


# -- MPI deadlock telemetry ---------------------------------------------------


class TestMPIDeadlockTelemetry:
    def test_timeout_emits_deadlock_instant(self):
        def lonely_recv(comm: Communicator):
            if comm.rank == 0:
                return comm.recv(source=1, timeout=0.2)
            return None

        with telemetry.session() as session:
            with pytest.raises(MPIError):
                mpi_run(2, lonely_recv, timeout=0.2)
        deadlocks = session.tracer.events_named("mpi.deadlock")
        assert len(deadlocks) == 1
        assert session.metrics.counter("mpi.deadlocks").value == 1

    def test_slow_sender_emits_near_deadlock_warning(self):
        def program(comm: Communicator):
            if comm.rank == 1:
                time.sleep(0.25)
                comm.send("late", dest=0)
                return None
            return comm.recv(source=1, timeout=0.4)

        with telemetry.session() as session:
            results = mpi_run(2, program, timeout=5.0)
        assert results[0] == "late"           # no error: it arrived in time
        (warning,) = session.tracer.events_named("mpi.deadlock.near")
        assert warning.args["wait_fraction"] >= 0.5
        assert session.metrics.counter("mpi.recv.near_deadlock").value == 1
        assert session.tracer.events_named("mpi.deadlock") == []

    def test_fast_sender_emits_no_warning(self):
        def program(comm: Communicator):
            if comm.rank == 1:
                comm.send("now", dest=0)
                return None
            return comm.recv(source=1, timeout=30.0)

        with telemetry.session() as session:
            mpi_run(2, program)
        assert session.tracer.events_named("mpi.deadlock.near") == []


# -- speculative-execution telemetry ------------------------------------------


class TestStragglerTelemetry:
    def test_backup_events_match_outcome(self):
        engine = SpeculativeEngine(
            n_workers=4,
            straggler_wait_s=0.02,
            slow_tasks=[SlowTask(task_index=0, delay_s=0.3)],
        )
        with telemetry.session() as session:
            outcome = engine.run(word_count_job(n_reduce_tasks=2), list(_DOCS))
        launched = session.tracer.events_named("mr.backup.launched")
        assert len(launched) == outcome.backups_launched >= 1
        counter = session.metrics.counter("mr.backups.launched")
        assert counter.value == outcome.backups_launched
        won = session.tracer.events_named("mr.backup.won")
        assert len(won) == outcome.backups_won
        (job,) = [s for s in session.tracer.spans
                  if s.name == "mr.speculative_job"]
        assert job.args["speculate"] is True


# -- disabled-mode overhead ---------------------------------------------------


def _time_fork_join(repeats: int) -> float:
    """Best-of-``repeats`` wall time of one 4-thread fork-join region."""
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
    def test_disabled_hooks_within_5_percent_of_pure_stubs(self, monkeypatch):
        """The shipped disabled-mode hooks (one `is None` branch each)
        must cost ≤5% over hooks stubbed out entirely, on the fork-join
        patternlet the course opens with.  Interleaved best-of-N timing
        absorbs scheduler noise; thread fork/join dominates at ~1ms."""
        from contextlib import nullcontext

        from repro.telemetry import instrument

        assert not telemetry.is_enabled()
        null_cm = nullcontext()
        stubs = {
            "span": lambda *a, **k: null_cm,
            "instant": lambda *a, **k: None,
            "counter_event": lambda *a, **k: None,
            "inc": lambda *a, **k: None,
            "gauge": lambda *a, **k: None,
            "observe": lambda *a, **k: None,
            "observe_us": lambda *a, **k: None,
            "set_thread": lambda *a, **k: None,
            "ensure_thread": lambda *a, **k: None,
            "clear_thread": lambda *a, **k: None,
            "current_span_id": lambda: None,
            "now_us": lambda: 0.0,
            "enabled": lambda: False,
        }
        # Every public hook is stubbed, so a new one cannot escape the bound.
        assert set(stubs) == set(instrument.__all__)

        for attempt in range(3):
            shipped_best = float("inf")
            stubbed_best = float("inf")
            for _ in range(5):                      # interleave the modes
                shipped_best = min(shipped_best, _time_fork_join(3))
                with pytest.MonkeyPatch.context() as mp:
                    for name, stub in stubs.items():
                        mp.setattr(instrument, name, stub)
                    stubbed_best = min(stubbed_best, _time_fork_join(3))
            ratio = shipped_best / stubbed_best
            if ratio <= 1.05:
                break
        assert ratio <= 1.05, (
            f"disabled telemetry added {(ratio - 1) * 100:.1f}% "
            f"({shipped_best * 1e6:.0f}us vs {stubbed_best * 1e6:.0f}us)"
        )


# -- the `repro trace` CLI ----------------------------------------------------


class TestTraceCLI:
    def test_trace_mapreduce_produces_multi_runtime_chrome_trace(
            self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "mapreduce", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "wrote" in stdout and "retried" in stdout
        doc = json.loads(out.read_text())
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["name"] == "process_name"}
        assert {"mapreduce", "openmp"} <= names   # >= 2 distinct runtimes
        span_names = {e["name"] for e in doc["traceEvents"]
                      if e["ph"] == "X"}
        assert {"mr.job", "mr.map.task", "omp.parallel"} <= span_names
        counters = [e for e in doc["traceEvents"]
                    if e["ph"] == "C" and e["name"] == "mr.retries"]
        assert counters, "retry counter events missing from Chrome trace"
        # Per-track ts ordering holds on a real workload, not just the
        # synthetic tracer used by the export unit tests.
        tracks: dict[tuple[int, int], list[float]] = {}
        for event in doc["traceEvents"]:
            if event["ph"] != "M":
                tracks.setdefault(
                    (event["pid"], event["tid"]), []).append(event["ts"])
        for ts_list in tracks.values():
            assert ts_list == sorted(ts_list)

    def test_trace_writes_jsonl_too(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        code = main(["trace", "fork_join",
                     "--out", str(out), "--jsonl", str(jsonl)])
        assert code == 0
        lines = jsonl.read_text().strip().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "span" in kinds

    def test_trace_list_and_errors(self, tmp_path, capsys):
        assert main(["trace", "--list"]) == 0
        assert "mapreduce" in capsys.readouterr().out
        assert main(["trace", "no_such_workload",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert main(["trace", "fork_join", "--threads", "0",
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_trace_session_closed_after_cli(self, tmp_path):
        main(["trace", "barrier", "--out", str(tmp_path / "b.json")])
        assert not telemetry.is_enabled()

    @pytest.mark.parametrize("workload", ["mpi", "drugdesign"])
    def test_other_runtime_workloads_trace_cleanly(
            self, workload, tmp_path, capsys):
        out = tmp_path / f"{workload}.json"
        assert main(["trace", workload, "--threads", "2",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
