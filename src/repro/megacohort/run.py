"""Run the mega-cohort pipeline: shard → reduce → merge → tables.

:func:`run_streamed` is the entry point behind ``python -m repro
megacohort``: it calibrates the response model once at the published
N=124 (the knobs are *population parameters* — the same latent means,
factor shares and residual correlations applied to every shard), plans
the shards, dispatches one task per shard through a
:class:`~repro.sched.executor.WorkStealingExecutor` (threaded or
``mode="mp"``), merges the returned statistics in canonical shard-index
order, and computes the analysis from the merged statistics alone.

Peak memory is bounded by the shards in flight, never by N: the full
response tensor at N=1,000,000 would need roughly
:func:`full_tensor_bytes` ≈ 1.8 GB, while a shard draws and scores its
item noise in row blocks and so holds ~20 MiB at its traced peak
(default size; ``shard_peak_mib`` in ``BENCH_megacohort.json``) per
in-flight shard.

:func:`run_in_memory` is the reference path — ``ResponseModel →
assemble_waves → analyze_waves``, the monolithic draw round-tripped
through typed response sheets — and :func:`identity_check` pins the
correctness anchor: at N=124 with one shard, both paths render Tables
1–6 **byte-identically**.  Both end in the same
:func:`~repro.core.analysis.analyze` call (the study itself is
that one-shard run), so the check compares shard 0's draws with the
monolithic model's and the sheet round trip with the raw tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Mapping

from repro.config import resolve_mp_workers
from repro.core.analysis import SurveyStats, analyze
from repro.megacohort.shards import plan_shards, shard_stats_task
from repro.sched.core import Call
from repro.sched.executor import WorkStealingExecutor
from repro.simulation.model import LIKERT_DTYPE
from repro.stats.streaming import merge_indexed

__all__ = [
    "DEFAULT_N",
    "DEFAULT_SEED",
    "MegacohortResult",
    "full_tensor_bytes",
    "identity_check",
    "run_in_memory",
    "run_streamed",
]

#: The tentpole cohort size: the paper's study, scaled ~8000x.
DEFAULT_N = 1_000_000

#: The repo-wide study seed (the paper's year).
DEFAULT_SEED = 2018

#: Table order for rendered-output helpers.
TABLE_IDS = tuple(f"table{i}" for i in range(1, 7))


@lru_cache(maxsize=4)
def _calibration(seed: int):
    """Targets, the N=124 model, and its calibrated knobs (cached per seed)."""
    from repro.core.targets import simulation_targets
    from repro.simulation.calibration import calibrate
    from repro.simulation.model import ResponseModel

    targets = simulation_targets()
    model = ResponseModel(
        skills=targets.skills, n_students=targets.n_students, seed=seed
    )
    calibration = calibrate(model, targets)
    return targets, model, calibration


def full_tensor_bytes(n: int, k: int = 7, items_per_skill: int = 5) -> int:
    """What the *materialised* pipeline would hold for ``n`` students:
    the score tensor (at its real element size,
    :data:`~repro.simulation.model.LIKERT_DTYPE`) plus the float64
    standard-normal draw blocks the N=124 model keeps for calibration."""
    scores = k * 2 * 2 * items_per_skill * LIKERT_DTYPE.itemsize
    draws = (2 * 2 * 2 + k * 2 * 2 * 2 + k * 2 * 2 * items_per_skill) * 8
    return n * (scores + draws)


@dataclass(frozen=True)
class MegacohortResult:
    """Outcome of one streamed run."""

    n: int
    shards: int
    mode: str
    workers: int
    seed: int
    stats: SurveyStats
    analysis: Any                    # StudyAnalysis
    sched_stats: Mapping[str, Any]

    def report(self):
        """The standard :class:`~repro.core.report.ReproductionReport`."""
        from repro.core.report import ReproductionReport
        from repro.core.targets import PAPER

        return ReproductionReport(analysis=self.analysis, paper=PAPER)

    def render_tables(self) -> str:
        """Tables 1–6, rendered exactly as ``repro reproduce`` prints them."""
        report = self.report()
        return "\n\n".join(report.render_table(t) for t in TABLE_IDS)

    def summary(self) -> str:
        return (
            f"megacohort: n={self.n} shards={self.shards} "
            f"mode={self.mode} workers={self.workers} seed={self.seed}"
        )


def run_streamed(
    n: int = DEFAULT_N,
    shards: int | None = None,
    seed: int = DEFAULT_SEED,
    mode: str = "threaded",
    workers: int | None = None,
    executor: WorkStealingExecutor | None = None,
    speculate: bool = False,
    spec_k: float = 2.0,
) -> MegacohortResult:
    """Regenerate the survey analysis for ``n`` students, streamed.

    With ``executor`` the caller's executor is used as-is (and left
    open) — the hook the deterministic ``repro sched`` runner uses;
    otherwise a fresh threaded (real-concurrency) executor is built for
    ``mode`` and closed afterwards.  The merged statistics are a pure
    function of ``(n, shards, seed)``: completion order, worker count
    and executor mode cannot change a bit of the result.

    ``speculate`` installs a straggler policy
    (:class:`~repro.sched.spec.SpecPolicy` with ``k=spec_k``) on the
    owned executor: a shard stuck on a slow worker gets a backup copy,
    first completion wins, and — because every shard is a pure function
    of its own seed — the merged tables are byte-identical either way.
    """
    targets, model, calibration = _calibration(seed)
    plan = plan_shards(n, shards)
    tasks = [
        Call(shard_stats_task, spec, calibration.knobs, targets.skills,
             model.items_per_skill, seed)
        for spec in plan
    ]
    owns_executor = executor is None
    if executor is None:
        workers = workers if workers is not None else resolve_mp_workers()
        executor = WorkStealingExecutor(
            n_workers=workers, seed=seed, deterministic=False, mode=mode,
        )
        if speculate:
            from repro.sched.spec import SpecPolicy

            executor.speculate(SpecPolicy(k=spec_k))
    try:
        handles = executor.submit_batch(tasks, name="megacohort.shard")
        executor.drain()
        indexed = [handle.result() for handle in handles]
        sched_stats = executor.stats().as_dict()
        n_workers = executor.n_workers
        executor_mode = executor.mode
    finally:
        if owns_executor:
            executor.close()
    merged = merge_indexed(indexed)
    if merged.count != n:
        raise RuntimeError(
            f"merged statistics cover {merged.count} rows, expected {n}"
        )
    return MegacohortResult(
        n=n,
        shards=len(plan),
        mode=executor_mode,
        workers=n_workers,
        seed=seed,
        stats=merged,
        analysis=analyze(merged),
        sched_stats=sched_stats,
    )


def run_in_memory(seed: int = DEFAULT_SEED):
    """The reference pipeline at the published N=124.

    Generates the full tensor with the calibrated knobs, assembles
    typed survey waves, and runs the typed-sheet adapter
    :func:`~repro.core.analysis.analyze_waves` on them, with synthetic
    zero-padded student ids (sorted id order == row order, so the
    adapter restacks the generated tensor row for row).  Returns a
    StudyAnalysis.
    """
    from repro.core.analysis import analyze_waves
    from repro.simulation.assemble import assemble_waves
    from repro.survey.instrument import team_design_skills_survey

    targets, model, calibration = _calibration(seed)
    raw = model.generate(calibration.knobs)
    student_ids = [f"s{i:05d}" for i in range(targets.n_students)]
    waves = assemble_waves(raw, team_design_skills_survey(), student_ids)
    return analyze_waves(waves["first_half"], waves["second_half"])


def render_analysis_tables(analysis) -> str:
    """Tables 1–6 for any StudyAnalysis (streamed or in-memory)."""
    from repro.core.report import ReproductionReport
    from repro.core.targets import PAPER

    report = ReproductionReport(analysis=analysis, paper=PAPER)
    return "\n\n".join(report.render_table(t) for t in TABLE_IDS)


def identity_check(seed: int = DEFAULT_SEED) -> tuple[bool, list[str]]:
    """The N=124 anchor: streamed single-shard vs in-memory, per table.

    Returns ``(all_identical, detail_lines)`` where each line names a
    table and whether its rendered text matched byte for byte.
    """
    targets = _calibration(seed)[0]
    streamed = run_streamed(n=targets.n_students, shards=1, seed=seed)
    reference = run_in_memory(seed)
    streamed_report = streamed.report()
    from repro.core.report import ReproductionReport
    from repro.core.targets import PAPER

    reference_report = ReproductionReport(analysis=reference, paper=PAPER)
    detail: list[str] = []
    all_ok = True
    for table_id in TABLE_IDS:
        same = (streamed_report.render_table(table_id)
                == reference_report.render_table(table_id))
        all_ok &= same
        detail.append(
            f"{table_id}: {'identical' if same else 'DIFFERS'}"
        )
    return all_ok, detail
