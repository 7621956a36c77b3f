"""The unified workload registry and the shared ``--list`` contract.

One name table feeds every front-end: ``repro trace``/``chaos``/
``sched``/``serve`` resolve workloads through :mod:`repro.workloads`,
their ``--list`` output is byte-identical, and ``run_job`` is equivalent
to calling the per-mode runners directly.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys

import pytest

from repro import workloads
from repro.cli import main as cli_main
from repro.workloads import WorkloadModeError


@contextlib.contextmanager
def _temp_workload(name, **runners):
    workloads.register(name, **runners)
    try:
        yield
    finally:
        workloads.unregister(name)


# -- the registry itself ------------------------------------------------------


def test_registry_unions_all_provider_tables():
    names = workloads.names()
    # Every historical per-CLI name is present under its single entry.
    for expected in ("barrier", "fork_join", "reduction", "stragglers",
                     "stencil", "collectives", "partition",
                     "mapreduce", "openmp", "mpi", "drugdesign"):
        assert expected in names
    # Mode filters reproduce the old per-module name lists.
    assert "barrier" in workloads.names("trace")
    assert "barrier" not in workloads.names("chaos")
    assert "stencil" in workloads.names("chaos")
    assert set(workloads.names("sched")) == {
        "mapreduce", "openmp", "drugdesign", "megacohort", "stencil_sched"
    }
    assert set(workloads.names("pipeline")) == {"drugdesign"}
    assert "pipeline" in workloads.names("chaos")     # the chaos scenario


def test_shared_workloads_have_merged_modes():
    assert workloads.get("mapreduce").modes == ("trace", "chaos", "sched")
    assert workloads.get("mpi").modes == ("trace", "chaos")
    assert workloads.get("stencil").modes == ("chaos",)


def test_concurrent_first_jobs_of_a_fresh_process_all_run():
    """The first jobs of a fresh process may run on several threads at
    once (the job service's workers): each lookup must wait for every
    provider's registrations.  The same run also imports the runners'
    runtimes on four threads, whose import-lock deadlock (guarded in
    ``_ensure_providers_loaded``) shows here only some of the time."""
    script = (
        "import threading\n"
        "from repro import workloads\n"
        "names = ('mapreduce', 'drugdesign', 'stencil_sched', 'openmp')\n"
        "ran = []\n"
        "def run(name):\n"
        "    try:\n"
        "        workloads.run_job('sched', name, {'seed': 0})\n"
        "        ran.append(True)\n"
        "    except Exception:\n"
        "        ran.append(False)\n"
        "threads = [threading.Thread(target=run, args=(n,)) for n in names]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join()\n"
        "print(sum(ran))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120, cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "4"


def test_get_normalizes_and_raises_on_unknown():
    assert workloads.get("Fork-Join").name == "fork_join"
    with pytest.raises(KeyError):
        workloads.get("no_such_workload")


def test_runner_for_rejects_unsupported_mode_with_named_alternatives():
    entry = workloads.get("barrier")
    with pytest.raises(WorkloadModeError, match=r"supports: trace"):
        workloads.runner_for(entry, "chaos")
    with pytest.raises(ValueError, match="unknown mode"):
        workloads.runner_for(entry, "warp")


def test_register_merges_modes_and_rejects_conflicts():
    def sched_fn(executor, workers, seed):
        return "ok", []

    def trace_fn(threads):
        return "ok"

    with _temp_workload("tmp_merge", sched=sched_fn):
        workloads.register("tmp_merge", trace=trace_fn)   # merge, not clash
        assert workloads.get("tmp_merge").modes == ("trace", "sched")
        workloads.register("tmp_merge", sched=sched_fn)   # same fn: idempotent
        with pytest.raises(ValueError, match="already has a 'sched' runner"):
            workloads.register("tmp_merge", sched=lambda e, w, s: ("no", []))
    with pytest.raises(KeyError):
        workloads.get("tmp_merge")                        # unregister cleaned up


def test_register_chaos_requires_plan():
    with pytest.raises(ValueError, match="needs a chaos_plan"):
        workloads.register("tmp_chaos", chaos=lambda inj, s, t: (0, [], True))


def test_validate_params_rejects_junk():
    assert workloads.validate_params("sched", {"workers": 4, "seed": 0}) == {
        "workers": 4, "seed": 0
    }
    assert workloads.validate_params("trace", None) == {}
    with pytest.raises(ValueError, match="unknown parameter"):
        workloads.validate_params("trace", {"workers": 4})
    with pytest.raises(ValueError, match="must be an integer"):
        workloads.validate_params("trace", {"threads": "4"})
    with pytest.raises(ValueError, match="must be an integer"):
        workloads.validate_params("trace", {"threads": True})
    with pytest.raises(ValueError, match="out of range"):
        workloads.validate_params("sched", {"workers": 0})
    with pytest.raises(ValueError, match="unknown mode"):
        workloads.validate_params("warp", {})


# -- run_job: the uniform execution entry point -------------------------------


def test_run_job_sched_matches_direct_runner():
    from repro.sched.workloads import run_sched_workload

    payload = workloads.run_job("sched", "mapreduce",
                                {"workers": 4, "seed": 7})
    direct = run_sched_workload("mapreduce", workers=4, seed=7)
    assert payload["summary"] == direct.summary
    assert payload["output"] == list(direct.output_lines)
    assert payload["mode"] == "sched"
    assert payload["workload"] == "mapreduce"


def test_run_job_trace_matches_direct_runner():
    payload = workloads.run_job("trace", "barrier", {"threads": 4})
    assert payload["summary"] == workloads.get("barrier").trace(4)


def test_run_job_chaos_is_deterministic_and_reports_recovery():
    first = workloads.run_job("chaos", "mapreduce", {"seed": 7, "threads": 4})
    second = workloads.run_job("chaos", "mapreduce", {"seed": 7, "threads": 4})
    assert first == second
    assert first["ok"] is True
    assert sum(first["injected"].values()) >= 1


def test_run_job_rejects_wrong_mode():
    with pytest.raises(WorkloadModeError):
        workloads.run_job("trace", "stencil", {})


# -- the shared --list contract (satellite: one listing everywhere) -----------


def _cli_out(capsys, argv):
    assert cli_main(argv) == 0
    return capsys.readouterr().out


def test_list_is_byte_identical_across_subcommands(capsys):
    outs = {
        cmd: _cli_out(capsys, [cmd, "--list"])
        for cmd in ("trace", "chaos", "sched", "pipeline", "serve")
    }
    assert len(set(outs.values())) == 1
    assert outs["trace"] == workloads.render_listing() + "\n"


def test_listing_names_every_workload_with_its_modes():
    listing = workloads.render_listing()
    assert "14 registered" in listing
    assert "mapreduce" in listing
    assert "trace,chaos,sched" in listing
    assert "trace,chaos,sched,pipeline" in listing    # drugdesign, all modes


def test_cli_mode_mismatch_is_a_friendly_error(capsys):
    assert cli_main(["chaos", "barrier"]) == 2
    out = capsys.readouterr().out
    assert "does not support mode 'chaos'" in out
    assert "supports: trace" in out
    assert cli_main(["sched", "stencil"]) == 2
    assert "does not support mode 'sched'" in capsys.readouterr().out


# -- trace --follow (satellite: live span/counter streaming) ------------------


def test_trace_follow_streams_span_events_live(capsys, tmp_path):
    out_path = tmp_path / "follow.json"
    assert cli_main(["trace", "barrier", "--follow",
                     "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    open_lines = [line for line in out.splitlines() if "  open   " in line]
    close_lines = [line for line in out.splitlines() if "  close  " in line]
    assert open_lines and close_lines
    assert len(open_lines) == len(close_lines)        # every span closed
    assert "omp.barrier" in out
    assert "barrier patternlet" in out                # summary still printed
    assert out_path.exists()                          # trace still exported


def test_trace_follow_unknown_workload_fails_cleanly(capsys):
    assert cli_main(["trace", "no_such", "--follow"]) == 2
    assert "unknown workload" in capsys.readouterr().out
