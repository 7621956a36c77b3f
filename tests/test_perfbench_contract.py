"""The repo benchmark still runs against the program it wraps.

``perfbench`` wraps program attributes by name in its traced runs, so a
renamed or deleted method breaks every ``--trace 1`` run.  This runs the
traced ``pipeline_sweep`` and ``paper_study`` end to end, from a scratch
directory as a fresh checkout would.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _traced_run(workload, cwd):
    """Run one traced ``workload`` and return its per-layer metrics."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def test_traced_pipeline_sweep_runs_and_is_correct(tmp_path):
    metrics = _traced_run("pipeline_sweep", tmp_path)
    for name in ("pipeline.store.pending_jobs_ms", "pipeline.rank.rank_ms",
                 "pipeline.store.rows_read_per_job"):
        assert metrics[name] == 0, (name, metrics[name])


def test_traced_paper_study_reaches_team_formation(tmp_path):
    # A positive time proves the wrapper around ``study.form_teams`` is
    # still on the path the study takes.
    assert _traced_run("paper_study", tmp_path)["cohort.form_teams_s"] > 0
