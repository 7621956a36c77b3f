"""Population-scale survey simulation with streaming aggregation.

``repro.megacohort`` regenerates the paper's Tables 1–6 for cohorts far
beyond the published N=124 — a million students by default — without
ever materialising the full response tensor.  The pipeline:

1. **Shard** the cohort (:mod:`~repro.megacohort.shards`): each shard
   draws its own rows from an independent PCG64 stream derived from the
   run seed and the shard index, in the N=124 model's draw order
   (:func:`~repro.simulation.model.draw_response_blocks`) and through
   its :func:`~repro.simulation.model.trait_offset` /
   :func:`~repro.simulation.model.items_from_trait` map, drawing and
   scoring the item noise in row blocks.
2. **Reduce** each shard to sufficient statistics
   (:class:`~repro.core.analysis.SurveyStats`): streaming Welford/Chan
   moment accumulators covering every Table 1–6 cell.
3. **Merge** shard statistics in canonical shard-index order
   (order-independent by construction) and compute the analysis from
   the merged statistics alone (:mod:`~repro.megacohort.run`).

Correctness anchor: at N=124 with the calibrated knobs and a single
shard, the streamed pipeline renders Tables 1–6 **byte-identically** to
the in-memory path through typed response sheets
(``tests/test_megacohort.py`` pins this).  The study itself is such a
one-shard run.
"""

from repro.core.analysis import SurveyStats, analyze
from repro.megacohort.run import (
    MegacohortResult,
    identity_check,
    run_in_memory,
    run_streamed,
)
from repro.megacohort.shards import (
    DEFAULT_SHARD_ROWS,
    FAULT_SITE,
    ShardSpec,
    plan_shards,
    shard_rng,
    shard_scores,
    shard_stats,
    shard_stats_task,
)

__all__ = [
    "DEFAULT_SHARD_ROWS",
    "FAULT_SITE",
    "MegacohortResult",
    "ShardSpec",
    "SurveyStats",
    "analyze",
    "identity_check",
    "plan_shards",
    "run_in_memory",
    "run_streamed",
    "shard_rng",
    "shard_scores",
    "shard_stats",
    "shard_stats_task",
]
