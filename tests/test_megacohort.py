"""The mega-cohort subsystem: shard planning, the N=124 identity anchor,
order-independent merging, chaos recovery, and the bench/CLI wiring.

The load-bearing facts pinned here:

- **Anchor** — the streamed single-shard N=124 run renders Tables 1–6
  byte-identically to the in-memory ``ResponseModel → assemble_waves →
  analyze_waves`` pipeline.  The study is itself a one-shard run and
  ``analyze_waves`` is the adapter that stacks typed sheets back into
  the item tensor, so both sides end in the same ``analyze`` call: the
  check compares shard 0's draws with the monolithic model's and the
  typed-sheet round trip with the raw tensor.  The list-based oracle
  lives in ``tests/test_analysis_oracle.py``.
- **Seed rule** — shard 0 *is* the monolithic model's PCG64 stream
  (bitwise), every later shard draws from its own independent child
  stream, so any shard is regenerable from ``(seed, index)`` alone.
- **Order independence** — worker count, executor mode, and completion
  order cannot change a bit of the merged statistics.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.analysis import SurveyStats, analyze
from repro.megacohort.run import (
    _calibration,
    full_tensor_bytes,
    identity_check,
    render_analysis_tables,
    run_in_memory,
    run_streamed,
)
from repro.megacohort.shards import (
    DEFAULT_SHARD_ROWS,
    ShardSpec,
    plan_shards,
    shard_scores,
    shard_stats,
)
from repro.stats.streaming import CoMoments, Moments, merge_indexed

SEED = 2018


# ---------------------------------------------------------------- shards

def test_plan_shards_auto_sizes_by_default_granularity():
    plan = plan_shards(1_000_000)
    assert len(plan) == -(-1_000_000 // DEFAULT_SHARD_ROWS)
    assert sum(s.rows for s in plan) == 1_000_000
    assert [s.index for s in plan] == list(range(len(plan)))


def test_plan_shards_balanced_and_clamped():
    plan = plan_shards(10, 4)
    assert [s.rows for s in plan] == [3, 3, 2, 2]     # differ by at most one
    assert len(plan_shards(3, 8)) == 3                # clamped: >= 1 row each
    # N=124 fits one default shard — the identity anchor needs no merge.
    assert len(plan_shards(124)) == 1


def test_plan_shards_rejects_bad_inputs():
    with pytest.raises(ValueError):
        plan_shards(0)
    with pytest.raises(ValueError):
        ShardSpec(index=-1, rows=5)
    with pytest.raises(ValueError):
        ShardSpec(index=0, rows=0)


def test_shard_zero_is_the_monolithic_stream_bitwise():
    targets, model, calibration = _calibration(SEED)
    spec = ShardSpec(index=0, rows=targets.n_students)
    streamed = shard_scores(spec, calibration.knobs, len(targets.skills),
                            model.items_per_skill, SEED)
    reference = model.generate(calibration.knobs).scores
    assert np.array_equal(streamed, reference)


def test_sibling_shards_draw_distinct_streams():
    targets, model, calibration = _calibration(SEED)
    a = shard_scores(ShardSpec(0, 50), calibration.knobs,
                     len(targets.skills), model.items_per_skill, SEED)
    b = shard_scores(ShardSpec(1, 50), calibration.knobs,
                     len(targets.skills), model.items_per_skill, SEED)
    assert not np.array_equal(a, b)


# ---------------------------------------------------- the identity anchor

def test_n124_streamed_tables_match_in_memory_byte_for_byte():
    identical, detail = identity_check(SEED)
    assert identical, "\n".join(detail)
    assert len(detail) == 6
    assert all(line.endswith("identical") for line in detail)


def test_streamed_analysis_matches_in_memory_to_ulp_precision():
    # Both paths end in the same ``analyze`` call on the same draws, so
    # the raw statistics agree far inside this tolerance; the rendered
    # tables — the published artifact — are byte-identical, which
    # test_n124_streamed_tables_match_in_memory_byte_for_byte pins.  The
    # list-based oracle comparison lives in tests/test_analysis_oracle.py.
    import math

    targets = _calibration(SEED)[0]
    streamed = run_streamed(n=targets.n_students, shards=1, seed=SEED)
    reference = run_in_memory(SEED)
    assert streamed.analysis.n == reference.n == targets.n_students
    assert math.isclose(streamed.analysis.ttest_emphasis.t,
                        reference.ttest_emphasis.t, rel_tol=1e-12)
    assert math.isclose(streamed.analysis.ttest_growth.p_value,
                        reference.ttest_growth.p_value, rel_tol=1e-12)
    assert math.isclose(streamed.analysis.cohens_d_emphasis.d,
                        reference.cohens_d_emphasis.d, rel_tol=1e-12)


# ----------------------------------------------------- order independence

def test_merged_stats_are_shard_permutation_stable():
    targets, model, calibration = _calibration(SEED)
    plan = plan_shards(600, 4)
    indexed = [
        (spec.index, shard_stats(spec, calibration.knobs, targets.skills,
                                 model.items_per_skill, SEED))
        for spec in plan
    ]
    forward = merge_indexed(indexed)
    shuffled = merge_indexed(list(reversed(indexed)))
    assert forward.as_dict() == shuffled.as_dict()
    assert render_analysis_tables(analyze(forward)) == \
        render_analysis_tables(analyze(shuffled))


def test_worker_count_and_mode_cannot_change_the_tables():
    base = run_streamed(n=500, shards=4, seed=SEED, workers=1)
    more = run_streamed(n=500, shards=4, seed=SEED, workers=3)
    assert base.render_tables() == more.render_tables()
    assert base.stats.as_dict() == more.stats.as_dict()
    assert base.stats.count == 500


def test_streamed_count_mismatch_is_an_error():
    targets = _calibration(SEED)[0]
    stats = SurveyStats.from_scores(
        targets.skills,
        shard_scores(ShardSpec(0, 7), _calibration(SEED)[2].knobs,
                     len(targets.skills), 5, SEED),
    )
    assert stats.count == 7


# ------------------------------------------- golden statistics and oracle

#: sha256 of the canonical JSON of ``run_streamed(n, shards, seed)``'s
#: merged ``stats.as_dict()``, captured with int64 scores and the
#: float-mean reduction (:func:`_float_mean_oracle`).  One changed bit
#: anywhere in the merged statistics changes the digest.
GOLDEN_STATS = {
    (50_000, 4, 2018):
        "28ac356a4dfd1954b7acec267332aba9fba74e1ab17bb3a9559afcbd2ecdc8c4",
    (200_000, None, 45):
        "685e35a4dde8ef0007ad507fc0a9cf6cf055984d1deffc670ba01407a038f71d",
}


def _digest(stats: SurveyStats) -> str:
    text = json.dumps(stats.as_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n, shards, seed", sorted(GOLDEN_STATS, key=str))
def test_merged_stats_match_golden_digest(n, shards, seed):
    result = run_streamed(n=n, shards=shards, seed=seed)
    assert _digest(result.stats) == GOLDEN_STATS[(n, shards, seed)]


def _float_mean_oracle(skills, scores: np.ndarray) -> SurveyStats:
    """The reduction as float means over the item axis — the formulas
    ``from_scores`` replaced with exact integer item sums."""
    overall = scores.mean(axis=(1, 4))
    diff = overall[:, :, 0] - overall[:, :, 1]
    composite = (scores[..., 0] + scores[..., 1:].mean(axis=-1)) / 2.0
    skill = scores.mean(axis=-1)
    return SurveyStats(
        skills=tuple(skills),
        items_per_skill=scores.shape[-1],
        overall=Moments.from_batch(overall),
        diff=Moments.from_batch(diff),
        composite=Moments.from_batch(composite),
        skill_pair=CoMoments.from_batch(skill[:, :, 0, :], skill[:, :, 1, :]),
    )


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 40),
    k=st.integers(1, 7),
    items=st.sampled_from([2, 3, 5, 30]),
    dtype=st.sampled_from([np.int8, np.int64]),
    low=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, k=7, items=30, dtype=np.int8, low=5, seed=0)
def test_from_scores_matches_float_mean_oracle_bitwise(n, k, items, dtype,
                                                       low, seed):
    # All-5 items (``low=5``): 30 of them sum to 150, past int8's 127,
    # so an int8 accumulator fails the explicit example.
    rng = np.random.default_rng(seed)
    scores = rng.integers(low, 6, size=(n, k, 2, 2, items)).astype(dtype)
    skills = tuple(f"skill{i}" for i in range(k))
    stats = SurveyStats.from_scores(skills, scores)
    assert _digest(stats) == _digest(_float_mean_oracle(skills, scores))


def test_from_scores_rejects_single_item_skills():
    scores = np.full((4, 2, 2, 2, 1), 3, dtype=np.int8)
    with pytest.raises(ValueError, match="at least 2 items"):
        SurveyStats.from_scores(("a", "b"), scores)


# ------------------------------------------------------ registry wiring

def test_megacohort_registered_with_three_modes():
    from repro import workloads

    entry = workloads.get("megacohort")
    assert set(entry.modes) >= {"trace", "chaos", "sched"}


def test_chaos_crashed_shard_regenerates_byte_identically():
    from repro.faults.chaos import run_chaos

    report = run_chaos("megacohort", seed=7)
    assert report.ok
    assert report.injected_by_kind.get("crash", 0) == 1
    assert report.injected_by_kind.get("exception", 0) == 1
    assert report.recovered >= 2           # one retry per injected fault
    sites = {line.split("|")[0] for line in report.log_lines}
    assert sites == {"megacohort.shard"}


def test_sched_workload_digest_is_worker_independent():
    from repro.sched.workloads import run_sched_workload

    two = run_sched_workload("megacohort", workers=2, seed=5)
    four = run_sched_workload("megacohort", workers=4, seed=5)
    assert two.output_lines == four.output_lines
    assert any("t_emphasis=" in line for line in two.output_lines)


# ------------------------------------------------------------ bench/CLI

def test_full_tensor_estimate_scales_linearly():
    assert full_tensor_bytes(2_000) == 2 * full_tensor_bytes(1_000)
    # Per row: int8 item scores plus the three float64 draw blocks.
    per_row = 7 * 2 * 2 * 5 * 1 + (2 * 2 * 2 + 7 * 2 * 2 * 2 + 7 * 2 * 2 * 5) * 8
    assert full_tensor_bytes(1_000_000) == 1_000_000 * per_row


def test_peak_rss_helper_reports_positive_bytes():
    from repro.benchutil import format_bytes, peak_rss_bytes

    assert peak_rss_bytes() > 1024 * 1024      # a live interpreter > 1 MiB
    assert peak_rss_bytes(include_children=False) > 0
    assert format_bytes(1536) == "1.5 KiB"
    assert format_bytes(512) == "512 B"


def test_trajectory_renders_present_and_absent_suites(tmp_path):
    from repro.benchutil import render_trajectory

    (tmp_path / "BENCH_megacohort.json").write_text(
        '{"ok": true, "timestamp": "2026-01-01T00:00:00", "n": 124,\n'
        ' "threaded_rows_per_s": 1000.0, "mp_rows_per_s": 900.0,\n'
        ' "rss_fraction_of_full_tensor": 0.01}\n'
    )
    text = render_trajectory(str(tmp_path))
    assert "megacohort" in text and "rows=124" in text
    assert "absent" in text                # the other suites have no point
    # Corrupt JSON degrades to absent rather than raising.
    (tmp_path / "BENCH_kernels.json").write_text("{not json")
    assert "absent" in render_trajectory(str(tmp_path))


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def test_cli_streams_a_small_cohort():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "megacohort",
         "--n", "300", "--shards", "3", "--seed", "2018"],
        capture_output=True, text=True, timeout=300, env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "n=300 shards=3" in proc.stdout
    assert "t_emphasis=" in proc.stdout


def test_cli_rejects_bad_arguments():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "megacohort", "--n", "0"],
        capture_output=True, text=True, timeout=60, env=_cli_env(),
    )
    assert proc.returncode == 2
