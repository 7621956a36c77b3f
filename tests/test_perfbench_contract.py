"""The repo benchmark still runs against the program it wraps.

``perfbench`` wraps program attributes by name in its traced runs, so a
renamed or deleted method breaks every ``--trace 1`` run.  This runs the
traced ``pipeline_sweep`` end to end, from a scratch directory as a
fresh checkout would.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_traced_pipeline_sweep_runs_and_is_correct(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "pipeline_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    for name in ("pipeline.store.pending_jobs_ms", "pipeline.rank.rank_ms",
                 "pipeline.store.rows_read_per_job"):
        assert metrics[name] == 0, (name, metrics[name])
