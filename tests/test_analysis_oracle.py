"""The one analysis path against the list-based oracle.

The study analyses its raw item tensor as one shard of sufficient
statistics (``analyze(SurveyStats.from_scores(...))``), and
``analyze_waves`` stacks typed response sheets into that tensor first.
The oracle below is the list-based analysis they replaced: per-student
score vectors from ``cohort_scores`` fed to ``ttest_paired``,
``cohens_d_paper`` and ``pearson``.  On every seed both products must
render Tables 1–6 byte for byte as the oracle does, and every float
must agree to 1e-12 relative.

The oracle's statistics and scoring live here, not in ``src/``: no
product command runs them.  ``tests/test_stats_streaming.py`` pins the
``*_from_stats`` entry points to them bit for bit, and the
``tests/test_stats_*`` files check them against scipy.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

import numpy as np
import pytest

from repro.core.analysis import StudyAnalysis, analyze_waves
from repro.core.study import PBLStudy
from repro.megacohort.run import render_analysis_tables
from repro.simulation.assemble import assemble_waves
from repro.simulation.model import LIKERT_DTYPE, WAVES, RawScores
from repro.stats.correlation import CorrelationResult
from repro.stats.descriptive import mean
from repro.stats.distributions import t_cdf, t_sf
from repro.stats.effectsize import CohensDResult
from repro.stats.ranking import emphasis_growth_gaps, rank_by_score, spread
from repro.stats.ttest import TTestResult
from repro.survey.instrument import Element, Instrument, Item, team_design_skills_survey
from repro.survey.responses import ElementResponse, StudentResponse, WaveResponses
from repro.survey.scales import Category

SEEDS = (2018, 7919, 0, 1)
REL_TOL = 1e-12


# -- the list-based oracle ----------------------------------------------------
#
# Sample variance and SD with compensated two-pass summation.


def variance(xs: Sequence[float], ddof: int = 1) -> float:
    """Variance with ``ddof`` delta degrees of freedom (default: sample)."""
    n = len(xs)
    if n <= ddof:
        raise ValueError(f"variance requires more than ddof={ddof} observations, got {n}")
    m = mean(xs)
    # Two-pass algorithm with compensated summation for numerical stability.
    ss = math.fsum((x - m) ** 2 for x in xs)
    comp = math.fsum(x - m for x in xs)
    return (ss - comp * comp / n) / (n - ddof)


def stdev(xs: Sequence[float], ddof: int = 1) -> float:
    """Standard deviation (sample by default)."""
    return math.sqrt(variance(xs, ddof=ddof))


# Table 1: the paired t-test.

Alternative = Literal["two-sided", "less", "greater"]


def _p_from_t(t: float, df: float, alternative: Alternative) -> float:
    if alternative == "two-sided":
        return 2.0 * t_sf(abs(t), df)
    if alternative == "greater":
        return t_sf(t, df)
    if alternative == "less":
        return t_cdf(t, df)
    raise ValueError(f"unknown alternative {alternative!r}")


def ttest_paired(
    first: Sequence[float],
    second: Sequence[float],
    alternative: Alternative = "two-sided",
) -> TTestResult:
    """Paired t-test, the paper's Table 1 analysis.

    ``first`` and ``second`` are per-student scores for the two survey
    waves, in the same student order.  The reported mean difference is
    ``mean(first) - mean(second)`` (matching the paper's negative sign
    when scores improve in wave two).
    """
    if len(first) != len(second):
        raise ValueError(
            f"paired t-test requires equal lengths, got {len(first)} and {len(second)}"
        )
    n = len(first)
    if n < 2:
        raise ValueError("paired t-test requires at least 2 pairs")
    diffs = [a - b for a, b in zip(first, second)]
    d_mean = mean(diffs)
    d_sd = stdev(diffs)
    if d_sd == 0.0:
        raise ValueError("paired t-test undefined when all differences are equal")
    t = d_mean / (d_sd / math.sqrt(n))
    df = n - 1
    return TTestResult(
        kind="paired",
        mean_difference=d_mean,
        t=t,
        df=df,
        p_value=_p_from_t(t, df, alternative),
        n=n,
    )


# Tables 2 and 3: Cohen's d with average-variance pooling.


def cohens_d_paper(first: Sequence[float], second: Sequence[float]) -> CohensDResult:
    """Cohen's d exactly as the paper's Tables 2 and 3 compute it.

    ``d = (M2 - M1) / sqrt((SD1^2 + SD2^2) / 2)`` with sample SDs.
    Positive d means the second wave scored higher.
    """
    if len(first) < 2 or len(second) < 2:
        raise ValueError("Cohen's d requires at least 2 observations per wave")
    m1, m2 = mean(first), mean(second)
    s1, s2 = stdev(first), stdev(second)
    sd_pooled = math.sqrt((s1 * s1 + s2 * s2) / 2.0)
    if sd_pooled == 0.0:
        raise ValueError("Cohen's d undefined for two zero-variance samples")
    return CohensDResult(
        d=(m2 - m1) / sd_pooled,
        mean1=m1,
        mean2=m2,
        sd1=s1,
        sd2=s2,
        n1=len(first),
        n2=len(second),
        sd_pooled=sd_pooled,
        method="average-variance (paper)",
    )


# Table 4: Pearson r with its t-transform p-value.


def _pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mx, my = mean(xs), mean(ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined for a constant sequence")
    denom = math.sqrt(sxx * syy)
    if denom == 0.0:
        # sxx * syy underflowed to zero for denormal-scale sums; the
        # factored form cannot underflow when both inputs are nonzero.
        denom = math.sqrt(sxx) * math.sqrt(syy)
    r = sxy / denom
    # Guard against floating-point overshoot past +/-1.
    return max(-1.0, min(1.0, r))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> CorrelationResult:
    """Pearson product-moment correlation with two-sided p-value."""
    if len(xs) != len(ys):
        raise ValueError(f"correlation requires equal lengths, got {len(xs)} and {len(ys)}")
    n = len(xs)
    if n < 3:
        raise ValueError("correlation requires at least 3 pairs")
    r = _pearson_r(xs, ys)
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = 2.0 * t_sf(abs(t), n - 2)
    return CorrelationResult(r=r, p_value=p, n=n, method="pearson")


# Scoring: raw item responses to the per-student vectors of Tables 1–6.
# Skill scores average *all* items of an element; the Beyerlein composite
# weights the definition item and the mean of the components equally.


def composite_score(definition: float, components: Sequence[float]) -> float:
    """Composite score of one element for one respondent (or one cohort mean)."""
    if not components:
        raise ValueError("composite score requires at least one component item")
    return (definition + mean(components)) / 2.0


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


def list_analysis(first: WaveResponses, second: WaveResponses) -> StudyAnalysis:
    """The published analysis on per-student score lists (the oracle)."""
    first.validate()
    second.validate()
    n = len(first.aligned_with(second)[0])
    waves = {"first_half": first, "second_half": second}
    scores = {
        (category.value, wave_key): cohort_scores(wave, category)
        for wave_key, wave in waves.items()
        for category in Category
    }

    def paired(category: Category):
        a = scores[(category.value, "first_half")]
        b = scores[(category.value, "second_half")]
        common = sorted(set(a.student_ids) & set(b.student_ids))
        index_a = {s: i for i, s in enumerate(a.student_ids)}
        index_b = {s: i for i, s in enumerate(b.student_ids)}
        return ([a.overall[index_a[s]] for s in common],
                [b.overall[index_b[s]] for s in common])

    def effect(category: Category):
        return cohens_d_paper(
            list(scores[(category.value, "first_half")].overall),
            list(scores[(category.value, "second_half")].overall),
        )

    correlations = {}
    for wave_key in waves:
        emph = scores[(Category.CLASS_EMPHASIS.value, wave_key)]
        grow = scores[(Category.PERSONAL_GROWTH.value, wave_key)]
        for skill in emph.per_skill:
            correlations[(skill, wave_key)] = pearson(
                list(emph.per_skill[skill]), list(grow.per_skill[skill])
            )

    rankings: dict[str, dict] = {"emphasis": {}, "growth": {}}
    spreads: dict[str, dict] = {"emphasis": {}, "growth": {}}
    gaps = {}
    for wave_key in waves:
        emph = dict(scores[(Category.CLASS_EMPHASIS.value, wave_key)].composite_means)
        grow = dict(scores[(Category.PERSONAL_GROWTH.value, wave_key)].composite_means)
        for name, means in (("emphasis", emph), ("growth", grow)):
            rankings[name][wave_key] = tuple(rank_by_score(means))
            spreads[name][wave_key] = spread(means)
        gaps[wave_key] = emphasis_growth_gaps(emph, grow)

    return StudyAnalysis(
        n=n,
        ttest_emphasis=ttest_paired(*paired(Category.CLASS_EMPHASIS)),
        ttest_growth=ttest_paired(*paired(Category.PERSONAL_GROWTH)),
        cohens_d_emphasis=effect(Category.CLASS_EMPHASIS),
        cohens_d_growth=effect(Category.PERSONAL_GROWTH),
        pearson=correlations,
        emphasis_ranking=rankings["emphasis"],
        growth_ranking=rankings["growth"],
        growth_spread=spreads["growth"],
        emphasis_spread=spreads["emphasis"],
        gaps=gaps,
    )


def _leaves(value, path="analysis"):
    """Flatten an analysis into (path, scalar) pairs: fields in order,
    mapping entries by key (insertion order is not part of the result)."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _leaves(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}[{key!r}]")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _assert_matches_oracle(product: StudyAnalysis, oracle: StudyAnalysis) -> None:
    assert render_analysis_tables(product) == render_analysis_tables(oracle)
    ours, theirs = list(_leaves(product)), list(_leaves(oracle))
    assert [path for path, _ in ours] == [path for path, _ in theirs]
    for (path, a), (_, b) in zip(ours, theirs):
        if isinstance(a, float):
            assert math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0), (path, a, b)
        else:
            assert a == b, (path, a, b)


@pytest.fixture(scope="module", params=SEEDS, ids=[str(s) for s in SEEDS])
def seeded(request):
    result = PBLStudy(seed=request.param, simulate_teamwork=False).run()
    first, second = result.waves["first_half"], result.waves["second_half"]
    return result, first, second, list_analysis(first, second)


def test_study_analysis_matches_the_list_oracle(seeded):
    result, _first, _second, oracle = seeded
    _assert_matches_oracle(result.analysis, oracle)


def test_adapter_matches_the_list_oracle(seeded):
    _result, first, second, oracle = seeded
    _assert_matches_oracle(analyze_waves(first, second), oracle)


def test_adapter_on_study_waves_is_the_study_analysis(seeded):
    result, first, second, _oracle = seeded
    assert analyze_waves(first, second) == result.analysis


def test_waves_are_assembled_once_on_first_read():
    result = PBLStudy(seed=2018, simulate_teamwork=False).run()
    assert "waves" not in vars(result)
    waves = result.waves
    assert result.waves is waves
    assert [r.student_id for r in waves["first_half"].responses] == \
        list(result.student_ids)


def _waves(scores: np.ndarray) -> dict[str, WaveResponses]:
    instrument = team_design_skills_survey()
    raw = RawScores(skills=instrument.element_names,
                    items_per_skill=scores.shape[-1],
                    scores=scores.astype(LIKERT_DTYPE))
    ids = [f"s{i:03d}" for i in range(scores.shape[0])]
    return assemble_waves(raw, instrument, ids)


def _random_scores(n: int, seed: int = 0) -> np.ndarray:
    k = len(team_design_skills_survey().element_names)
    return np.random.default_rng(seed).integers(1, 6, size=(n, k, 2, len(WAVES), 5))


@pytest.mark.parametrize("analysis", [list_analysis, analyze_waves],
                         ids=["oracle", "adapter"])
def test_fewer_than_three_students_rejected(analysis):
    waves = _waves(_random_scores(2))
    with pytest.raises(ValueError, match="at least 3"):
        analysis(waves["first_half"], waves["second_half"])


@pytest.mark.parametrize("analysis", [list_analysis, analyze_waves],
                         ids=["oracle", "adapter"])
def test_constant_scores_rejected(analysis):
    waves = _waves(np.full_like(_random_scores(10), 3))
    with pytest.raises(ValueError, match="undefined"):
        analysis(waves["first_half"], waves["second_half"])


def test_adapter_pairs_only_students_in_both_waves():
    waves = _waves(_random_scores(12, seed=3))
    first = waves["first_half"]
    second = dataclasses.replace(waves["second_half"],
                                 responses=waves["second_half"].responses[2:])
    first_kept = dataclasses.replace(first, responses=first.responses[2:])
    assert analyze_waves(first, second) == \
        analyze_waves(first_kept, waves["second_half"])
    assert analyze_waves(first, second).n == 10


def test_adapter_needs_equal_item_counts():
    instrument = Instrument("uneven", (
        Element("A", Item("A0", "d", is_definition=True), (Item("A1", "c"),)),
        Element("B", Item("B0", "d", is_definition=True),
                (Item("B1", "c"), Item("B2", "c"))),
    ))
    sheets = tuple(
        StudentResponse(student_id=f"s{i}", ratings={
            (element.name, category): ElementResponse(
                element=element.name, category=category, definition=1 + i,
                components=(2,) * len(element.components))
            for element in instrument.elements for category in Category
        })
        for i in range(4)
    )
    wave = WaveResponses("first_half", instrument, sheets)
    with pytest.raises(ValueError, match="same number of items"):
        analyze_waves(wave, wave)
