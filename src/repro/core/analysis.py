"""The paper's statistical analysis, from raw waves to Tables 1–6.

Every quantity the paper's evaluation section reports is a function of
a few moments, so there is one analysis path: :func:`analyze` over the
sufficient statistics a :class:`SurveyStats` holds, four mergeable
accumulators that together determine every cell of Tables 1–6,

- ``overall``  — :class:`~repro.stats.streaming.Moments` of the
  per-student overall average, shape (category, wave): the means, SDs
  and n behind the Cohen's d of Tables 2–3;
- ``diff``     — Moments of the per-student first−second overall
  difference, shape (category,): the paired t-tests of Table 1;
- ``composite``— Moments of the per-student Beyerlein composite score,
  shape (skill, category, wave): the cohort-mean rankings of Tables
  5–6, plus the Discussion's spreads and emphasis−growth gaps;
- ``skill_pair`` — :class:`~repro.stats.streaming.CoMoments` of the
  (emphasis, growth) skill-score pair, shape (skill, wave): the Pearson
  correlations of Table 4.

:func:`analyze` goes through the ``*_from_stats`` entry points of
:mod:`repro.stats`, whose floating-point operation order mirrors the
list-based oracle in ``tests/test_analysis_oracle.py`` exactly.  The
study is a one-shard run of it —
``analyze(SurveyStats.from_scores(raw.skills, raw.scores))`` — and the
mega-cohort (:mod:`repro.megacohort`) merges many shards into the same
call.

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
from typing import Mapping, Sequence

import numpy as np

from repro.simulation.model import LIKERT_DTYPE, WAVES, derived_scores
from repro.stats.correlation import CorrelationResult, pearson_r_from_stats
from repro.stats.effectsize import CohensDResult, cohens_d_from_stats
from repro.stats.ranking import (
    RankedItem,
    emphasis_growth_gaps,
    rank_by_score,
    spread,
)
from repro.stats.streaming import CoMoments, Moments
from repro.stats.ttest import TTestResult, ttest_paired_from_stats
from repro.survey.responses import WaveResponses
from repro.survey.scales import Category

__all__ = ["StudyAnalysis", "SurveyStats", "analyze", "analyze_waves"]


@dataclass(frozen=True)
class SurveyStats:
    """Mergeable sufficient statistics of one shard (or a whole cohort)."""

    skills: tuple[str, ...]
    items_per_skill: int
    overall: Moments        # (category, wave)
    diff: Moments           # (category,)
    composite: Moments      # (skill, category, wave)
    skill_pair: CoMoments   # (skill, wave): x=emphasis, y=growth

    @property
    def count(self) -> int:
        return self.overall.count

    @classmethod
    def from_scores(cls, skills: Sequence[str], scores: np.ndarray) -> "SurveyStats":
        """Reduce a raw item-score tensor (n, K, 2, 2, items) to statistics.

        The per-student quantities come from exact integer item sums
        (:func:`~repro.simulation.model.derived_scores`, shared with
        :class:`~repro.simulation.model.RawScores` and calibration), so
        each value entering the accumulators is the same float a mean
        over the item axis gives, bit for bit.  Needs at least 2 items
        per skill.
        """
        skills = tuple(skills)
        if scores.ndim != 5:
            raise ValueError(f"scores must be 5-d, got shape {scores.shape}")
        n, k, n_cat, n_wave, items = scores.shape
        if k != len(skills):
            raise ValueError(f"{k} score skills for {len(skills)} names")
        if n_cat != 2 or n_wave != 2:
            raise ValueError("scores must have 2 categories and 2 waves")
        derived = derived_scores(scores)
        overall = derived.overall                         # (n, C, W)
        diff = overall[:, :, 0] - overall[:, :, 1]        # (n, C) first - second
        skill = derived.skill                             # (n, K, C, W)
        return cls(
            skills=skills,
            items_per_skill=items,
            overall=Moments.from_batch(overall),
            diff=Moments.from_batch(diff),
            composite=Moments.from_batch(derived.composite),
            skill_pair=CoMoments.from_batch(skill[:, :, 0, :], skill[:, :, 1, :]),
        )

    def merge(self, other: "SurveyStats") -> "SurveyStats":
        """Combine two shards' statistics (Chan merges, elementwise)."""
        if self.skills != other.skills:
            raise ValueError(
                f"cannot merge stats over different skills: "
                f"{self.skills} vs {other.skills}"
            )
        if self.items_per_skill != other.items_per_skill:
            raise ValueError(
                f"cannot merge stats with {self.items_per_skill} and "
                f"{other.items_per_skill} items per skill"
            )
        return SurveyStats(
            skills=self.skills,
            items_per_skill=self.items_per_skill,
            overall=self.overall.merge(other.overall),
            diff=self.diff.merge(other.diff),
            composite=self.composite.merge(other.composite),
            skill_pair=self.skill_pair.merge(other.skill_pair),
        )

    def as_dict(self) -> dict:
        return {
            "skills": list(self.skills),
            "items_per_skill": self.items_per_skill,
            "count": self.count,
            "overall": self.overall.as_dict(),
            "diff": self.diff.as_dict(),
            "composite": self.composite.as_dict(),
            "skill_pair": self.skill_pair.as_dict(),
        }


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


def analyze(stats: SurveyStats) -> StudyAnalysis:
    """The paper's full analysis from merged sufficient statistics alone.

    Returns the :class:`StudyAnalysis` behind
    everything the report renders (Tables 1–6, fidelity checks); the
    raw per-student vectors are never needed.
    """
    n = stats.count
    diff_mean = stats.diff.mean
    diff_var = stats.diff.variance()
    ttest_emphasis = ttest_paired_from_stats(
        n, float(diff_mean[0]), float(diff_var[0])
    )
    ttest_growth = ttest_paired_from_stats(
        n, float(diff_mean[1]), float(diff_var[1])
    )

    o_mean = stats.overall.mean
    o_var = stats.overall.variance()
    cohens_emphasis = cohens_d_from_stats(
        n, float(o_mean[0, 0]), float(o_var[0, 0]),
        n, float(o_mean[0, 1]), float(o_var[0, 1]),
    )
    cohens_growth = cohens_d_from_stats(
        n, float(o_mean[1, 0]), float(o_var[1, 0]),
        n, float(o_mean[1, 1]), float(o_var[1, 1]),
    )

    pair = stats.skill_pair
    correlations = {
        (skill, wave): pearson_r_from_stats(
            n,
            float(pair.m2x[ki, wi]),
            float(pair.m2y[ki, wi]),
            float(pair.cxy[ki, wi]),
        )
        for ki, skill in enumerate(stats.skills)
        for wi, wave in enumerate(WAVES)
    }

    c_mean = stats.composite.mean
    emphasis_ranking: dict[str, tuple] = {}
    growth_ranking: dict[str, tuple] = {}
    emphasis_spread: dict[str, float] = {}
    growth_spread: dict[str, float] = {}
    gaps: dict[str, dict] = {}
    for wi, wave in enumerate(WAVES):
        emph = {s: float(c_mean[ki, 0, wi]) for ki, s in enumerate(stats.skills)}
        grow = {s: float(c_mean[ki, 1, wi]) for ki, s in enumerate(stats.skills)}
        emphasis_ranking[wave] = tuple(rank_by_score(emph))
        growth_ranking[wave] = tuple(rank_by_score(grow))
        emphasis_spread[wave] = spread(emph)
        growth_spread[wave] = spread(grow)
        gaps[wave] = emphasis_growth_gaps(emph, grow)

    return StudyAnalysis(
        n=n,
        ttest_emphasis=ttest_emphasis,
        ttest_growth=ttest_growth,
        cohens_d_emphasis=cohens_emphasis,
        cohens_d_growth=cohens_growth,
        pearson=correlations,
        emphasis_ranking=emphasis_ranking,
        growth_ranking=growth_ranking,
        growth_spread=growth_spread,
        emphasis_spread=emphasis_spread,
        gaps=gaps,
    )


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
