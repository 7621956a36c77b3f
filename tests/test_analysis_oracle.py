"""The one analysis path against the list-based oracle.

The study analyses its raw item tensor as one shard of sufficient
statistics (``analyze(SurveyStats.from_scores(...))``), and
``analyze_waves`` stacks typed response sheets into that tensor first.
The oracle below is the list-based analysis they replaced: per-student
score vectors from ``cohort_scores`` fed to ``ttest_paired``,
``cohens_d_paper`` and ``pearson``.  On every seed both products must
render Tables 1–6 byte for byte as the oracle does, and every float
must agree to 1e-12 relative.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.analysis import StudyAnalysis, analyze_waves
from repro.core.study import PBLStudy
from repro.megacohort.run import render_analysis_tables
from repro.simulation.assemble import assemble_waves
from repro.simulation.model import LIKERT_DTYPE, WAVES, RawScores
from repro.stats.correlation import pearson
from repro.stats.effectsize import cohens_d_paper
from repro.stats.ranking import emphasis_growth_gaps, rank_by_score, spread
from repro.stats.ttest import ttest_paired
from repro.survey.instrument import Element, Instrument, Item, team_design_skills_survey
from repro.survey.responses import ElementResponse, StudentResponse, WaveResponses
from repro.survey.scales import Category
from repro.survey.scoring import cohort_scores

SEEDS = (2018, 7919, 0, 1)
REL_TOL = 1e-12


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
