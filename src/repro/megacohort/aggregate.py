"""Shard-level sufficient statistics for the paper's full analysis.

:class:`SurveyStats` is the streaming counterpart of a raw score tensor:
four accumulators that together determine every cell of Tables 1–6,

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

:func:`analyze` turns merged statistics into the
:class:`~repro.core.analysis.StudyAnalysis` of Tables 1–6, via the
``*_from_stats`` entry points of :mod:`repro.stats`, whose
floating-point operation order mirrors the array versions exactly.  It
is the one analysis path: the study analyses its N=124 tensor as one
shard, and :func:`~repro.core.analysis.analyze_waves` stacks typed
response sheets into such a tensor first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.simulation.model import derived_scores
from repro.stats.streaming import CoMoments, Moments

__all__ = ["SurveyStats", "analyze"]


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


def analyze(stats: SurveyStats):
    """The paper's full analysis from merged sufficient statistics alone.

    Returns the :class:`~repro.core.analysis.StudyAnalysis` behind
    everything the report renders (Tables 1–6, fidelity checks); the
    raw per-student vectors are never needed.
    """
    from repro.core.analysis import StudyAnalysis
    from repro.simulation.model import WAVES
    from repro.stats.correlation import pearson_r_from_stats
    from repro.stats.effectsize import cohens_d_from_stats
    from repro.stats.ranking import emphasis_growth_gaps, rank_by_score, spread
    from repro.stats.ttest import ttest_paired_from_stats

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
