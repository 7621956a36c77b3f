"""Statistics substrate.

Everything the paper's evaluation section uses, implemented from scratch
(no scipy at runtime; scipy is only used in the test suite to cross-check):

- :mod:`repro.stats.distributions` — normal / Student-t distribution
  functions built on our own incomplete-beta and error-function
  implementations.
- :mod:`repro.stats.descriptive` — descriptive statistics.
- :mod:`repro.stats.ttest` — one-sample, paired, pooled and Welch
  two-sample t-tests (Table 1).
- :mod:`repro.stats.effectsize` — Cohen's d family, including the exact
  pooled-SD formula printed in the paper (Tables 2 and 3), and the
  small/medium/large interpretation bands.
- :mod:`repro.stats.correlation` — Pearson and Spearman correlation with
  p-values and Fisher confidence intervals (Table 4).
- :mod:`repro.stats.guilford` — Guilford (1956) correlation-strength bands
  used by the paper to describe Table 4.
- :mod:`repro.stats.composite` — the Beyerlein composite score.
- :mod:`repro.stats.ranking` — ranking helpers for Tables 5 and 6.
- :mod:`repro.stats.streaming` — parallel-mergeable Welford/Chan moment
  accumulators; with the ``*_from_stats`` entry points in
  :mod:`~repro.stats.ttest` / :mod:`~repro.stats.effectsize` /
  :mod:`~repro.stats.correlation`, every Table 1–6 cell is computable
  from merged sufficient statistics alone (the mega-cohort path).

:mod:`repro.stats.power` (paired-t power) and :mod:`repro.stats.reliability`
(Cronbach's alpha) are imported as submodules, not re-exported here, so
the study does not load them.
"""

from repro.stats.bootstrap import BootstrapCI, bootstrap_ci, bootstrap_paired_ci
from repro.stats.composite import composite_score
from repro.stats.correlation import (
    CorrelationResult,
    fisher_confidence_interval,
    pearson,
    pearson_r_from_stats,
    spearman,
)
from repro.stats.descriptive import Summary, describe
from repro.stats.distributions import (
    betainc,
    erf,
    erfc,
    normal_cdf,
    normal_ppf,
    normal_sf,
    t_cdf,
    t_ppf,
    t_sf,
)
from repro.stats.effectsize import (
    CohensDResult,
    cohens_d_av,
    cohens_d_from_stats,
    cohens_d_interpretation,
    cohens_d_paired,
    cohens_d_paper,
    cohens_d_pooled,
    hedges_g,
)
from repro.stats.guilford import GuilfordBand, guilford_band
from repro.stats.ranking import rank_by_score, rank_table
from repro.stats.streaming import CoMoments, Moments, merge_indexed
from repro.stats.ttest import (
    TTestResult,
    ttest_independent,
    ttest_one_sample,
    ttest_paired,
    ttest_paired_from_stats,
    ttest_welch,
)

__all__ = [
    "BootstrapCI",
    "CohensDResult",
    "CorrelationResult",
    "GuilfordBand",
    "Summary",
    "TTestResult",
    "betainc",
    "bootstrap_ci",
    "bootstrap_paired_ci",
    "CoMoments",
    "Moments",
    "cohens_d_av",
    "cohens_d_from_stats",
    "cohens_d_interpretation",
    "cohens_d_paired",
    "cohens_d_paper",
    "cohens_d_pooled",
    "composite_score",
    "describe",
    "erf",
    "erfc",
    "fisher_confidence_interval",
    "guilford_band",
    "hedges_g",
    "normal_cdf",
    "normal_ppf",
    "normal_sf",
    "merge_indexed",
    "pearson",
    "pearson_r_from_stats",
    "rank_by_score",
    "rank_table",
    "spearman",
    "t_cdf",
    "t_ppf",
    "t_sf",
    "ttest_independent",
    "ttest_one_sample",
    "ttest_paired",
    "ttest_paired_from_stats",
    "ttest_welch",
]
