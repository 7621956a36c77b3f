"""The paper's statistical analysis, from raw waves to Tables 1–6.

Every quantity the paper's evaluation section reports is a function of
a few moments, so there is one analysis path:
:func:`~repro.megacohort.aggregate.analyze` over the sufficient
statistics :class:`~repro.megacohort.aggregate.SurveyStats` holds.  The
study is a one-shard run of it —
``analyze(SurveyStats.from_scores(raw.skills, raw.scores))`` — and the
mega-cohort merges many shards into the same call.

:func:`analyze_waves` is the adapter for typed response sheets (real or
simulated — the pipeline cannot tell): it validates the two
:class:`WaveResponses`, pairs them by student id in sorted order (the
study's row order), stacks them into the ``(n, K, 2, 2, items)`` item
tensor and makes the same call.  On a study's own waves it returns the
study's analysis bit for bit.  :class:`StudyAnalysis` holds:

- Table 1 — paired t-tests on overall Class-Emphasis / Personal-Growth.
- Tables 2–3 — per-wave descriptives + Cohen's d (paper formula).
- Table 4 — per-skill Pearson emphasis↔growth per wave, with Guilford
  bands.
- Tables 5–6 — composite-score rankings per wave, plus the Discussion's
  derived quantities (score spreads, emphasis−growth gaps, the 0.2
  redesign threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.megacohort.aggregate import SurveyStats, analyze
from repro.simulation.model import LIKERT_DTYPE
from repro.stats.correlation import CorrelationResult
from repro.stats.effectsize import CohensDResult
from repro.stats.ranking import RankedItem
from repro.stats.ttest import TTestResult
from repro.survey.responses import WaveResponses
from repro.survey.scales import Category

__all__ = ["StudyAnalysis", "analyze_waves"]


@dataclass(frozen=True)
class StudyAnalysis:
    """Every statistic of the paper's evaluation, regenerated."""

    n: int
    # Table 1
    ttest_emphasis: TTestResult
    ttest_growth: TTestResult
    # Tables 2 and 3
    cohens_d_emphasis: CohensDResult
    cohens_d_growth: CohensDResult
    # Table 4: (skill, wave key) -> correlation
    pearson: Mapping[tuple[str, str], CorrelationResult]
    # Tables 5 and 6: wave key -> ranking (composite-score cohort means)
    emphasis_ranking: Mapping[str, tuple[RankedItem, ...]]
    growth_ranking: Mapping[str, tuple[RankedItem, ...]]
    # Discussion quantities
    growth_spread: Mapping[str, float]
    emphasis_spread: Mapping[str, float]
    gaps: Mapping[str, Mapping[str, tuple[float, bool]]]


def analyze_waves(first: WaveResponses, second: WaveResponses) -> StudyAnalysis:
    """Run the complete published analysis on two survey waves.

    Only students who answered both waves enter (the paired analysis
    needs complete pairs), in sorted student-id order.  Every element
    must have the same number of items: the sheets become one item
    tensor.
    """
    first.validate()
    second.validate()
    first_aligned, second_aligned = first.aligned_with(second)
    skills = first.instrument.element_names
    if len({e.n_items for e in first.instrument.elements}) != 1:
        raise ValueError("analysis needs the same number of items per element")
    # (n, K, category, wave, items): definition item first, as generated.
    scores = np.array(
        [
            [
                [[a.rating(skill, category).all_scores,
                  b.rating(skill, category).all_scores]
                 for category in Category]
                for skill in skills
            ]
            for a, b in zip(first_aligned, second_aligned)
        ],
        dtype=LIKERT_DTYPE,
    )
    return analyze(SurveyStats.from_scores(skills, scores))
