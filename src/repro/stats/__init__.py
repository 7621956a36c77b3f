"""Statistics substrate.

Everything the paper's evaluation section uses, implemented from scratch
(no scipy at runtime; scipy is only used in the test suite to cross-check).
Every Table 1–6 cell is computed from merged sufficient statistics, one
implementation per statistic:

- :mod:`repro.stats.streaming` — parallel-mergeable Welford/Chan moment
  accumulators;
- :mod:`repro.stats.ttest` — the paired t-test of Table 1;
- :mod:`repro.stats.effectsize` — the paper's average-variance Cohen's d
  (Tables 2 and 3) and the small/medium/large interpretation bands;
- :mod:`repro.stats.correlation` — Pearson r with its p-value (Table 4);
- :mod:`repro.stats.guilford` — Guilford (1956) correlation-strength bands
  used by the paper to describe Table 4;
- :mod:`repro.stats.ranking` — ranking helpers for Tables 5 and 6;
- :mod:`repro.stats.distributions` — the Student-t distribution functions
  behind the p-values, built on our own incomplete-beta implementation.

:mod:`repro.stats.bootstrap` (seeded percentile CIs, timed by
``repro bench kernels``) and :mod:`repro.stats.descriptive` are imported
as submodules, not re-exported here, so the study does not load them.
"""

from repro.stats.correlation import CorrelationResult, pearson_r_from_stats
from repro.stats.distributions import betainc, t_cdf, t_sf
from repro.stats.effectsize import (
    CohensDResult,
    cohens_d_from_stats,
    cohens_d_interpretation,
)
from repro.stats.guilford import GuilfordBand, guilford_band
from repro.stats.ranking import rank_by_score, rank_table
from repro.stats.streaming import CoMoments, Moments, merge_indexed
from repro.stats.ttest import TTestResult, ttest_paired_from_stats

__all__ = [
    "CoMoments",
    "CohensDResult",
    "CorrelationResult",
    "GuilfordBand",
    "Moments",
    "TTestResult",
    "betainc",
    "cohens_d_from_stats",
    "cohens_d_interpretation",
    "guilford_band",
    "merge_indexed",
    "pearson_r_from_stats",
    "rank_by_score",
    "rank_table",
    "t_cdf",
    "t_sf",
    "ttest_paired_from_stats",
]
