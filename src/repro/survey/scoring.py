"""Scoring: from raw item responses to the quantities in Tables 1–6.

The paper derives, per student and wave:

- an **overall average** per category ("The two variables were created by
  averaging all class emphasis question scores on the two surveys
  respectively") — the input of Table 1's paired t-tests and the Cohen's d
  of Tables 2–3;
- a **skill score** per element per category ("Each skill score was created
  by averaging all question scores under each skill") — the inputs of
  Table 4's Pearson correlations;
- a **composite score** per element ("averaging the 'definition' and the
  overall performance average of individual components") — the basis of
  the rankings in Tables 5–6.

Note the subtle difference: skill scores average *all* items of the element
(definition included), composite scores weight the definition item and the
mean of the components equally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.stats.composite import composite_score
from repro.stats.descriptive import mean
from repro.survey.responses import StudentResponse, WaveResponses
from repro.survey.scales import Category

__all__ = [
    "element_score",
    "skill_scores",
    "overall_average",
    "composite_scores",
    "CohortScores",
    "cohort_scores",
]


def element_score(response: StudentResponse, element: str, category: Category) -> float:
    """Skill score: average of all the element's item scores."""
    rating = response.rating(element, category)
    return mean(rating.all_scores)


def skill_scores(response: StudentResponse, category: Category) -> dict[str, float]:
    """Skill score for every element answered by this student."""
    names = sorted(response.element_names())
    return {name: element_score(response, name, category) for name in names}


def overall_average(response: StudentResponse, category: Category) -> float:
    """Average of *all* question scores of one category (Table 1's variable)."""
    scores: list[int] = []
    for (_name, cat), rating in response.ratings.items():
        if cat is category:
            scores.extend(rating.all_scores)
    if not scores:
        raise ValueError(
            f"student {response.student_id!r} has no scores for {category.value}"
        )
    return mean(scores)


def composite_scores(response: StudentResponse, category: Category) -> dict[str, float]:
    """Beyerlein composite score per element for one student."""
    out: dict[str, float] = {}
    for name in sorted(response.element_names()):
        rating = response.rating(name, category)
        out[name] = composite_score(rating.definition, rating.components)
    return out


@dataclass(frozen=True)
class CohortScores:
    """Cohort-level score vectors for one wave and one category.

    ``overall`` is the per-student overall average (length N, student order
    fixed by sorted id); ``per_skill`` maps element name to the per-student
    skill-score vector; ``composite_means`` maps element name to the cohort
    mean composite score (what Tables 5/6 rank).
    """

    wave_name: str
    category: Category
    student_ids: tuple[str, ...]
    overall: tuple[float, ...]
    per_skill: Mapping[str, tuple[float, ...]]
    composite_means: Mapping[str, float]

    @property
    def n(self) -> int:
        return len(self.student_ids)


def cohort_scores(wave: WaveResponses, category: Category) -> CohortScores:
    """Aggregate one wave's raw responses into cohort score vectors."""
    ordered = sorted(wave.responses, key=lambda r: r.student_id)
    if not ordered:
        raise ValueError(f"wave {wave.wave_name!r} has no responses")
    ids = tuple(r.student_id for r in ordered)
    overall = tuple(overall_average(r, category) for r in ordered)

    element_names = wave.instrument.element_names
    per_skill: dict[str, tuple[float, ...]] = {
        name: tuple(element_score(r, name, category) for r in ordered)
        for name in element_names
    }
    composites = [composite_scores(r, category) for r in ordered]
    composite_means = {
        name: mean([scores[name] for scores in composites])
        for name in element_names
    }
    return CohortScores(
        wave_name=wave.wave_name,
        category=category,
        student_ids=ids,
        overall=overall,
        per_skill=per_skill,
        composite_means=composite_means,
    )

