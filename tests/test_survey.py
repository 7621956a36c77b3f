"""The survey instrument, scales, responses and scoring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.survey import (
    CLASS_EMPHASIS_SCALE,
    ELEMENT_NAMES,
    Category,
    PERSONAL_GROWTH_SCALE,
    team_design_skills_survey,
    validate_likert,
)
from repro.survey.instrument import Element, Instrument, Item
from repro.survey.responses import ElementResponse, StudentResponse, WaveResponses
from repro.survey.scoring import (
    composite_scores,
    element_score,
    overall_average,
    skill_scores,
)


class TestScales:
    def test_class_emphasis_anchors_verbatim(self):
        assert CLASS_EMPHASIS_SCALE.label(1) == "Did not discuss"
        assert CLASS_EMPHASIS_SCALE.label(4) == "Significant emphasis"
        assert CLASS_EMPHASIS_SCALE.label(5) == "Major emphasis"

    def test_personal_growth_anchors_verbatim(self):
        assert PERSONAL_GROWTH_SCALE.label(3) == "I grew some and gained a few new skills"
        assert PERSONAL_GROWTH_SCALE.label(5) == (
            "I experienced a tremendous growth and added many new skills"
        )

    def test_validate_likert_accepts_grid(self):
        for score in range(1, 6):
            assert validate_likert(score) == score

    @pytest.mark.parametrize("bad", [0, 6, -1])
    def test_validate_likert_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            validate_likert(bad)

    @pytest.mark.parametrize("bad", [2.5, "3", True])
    def test_validate_likert_rejects_non_int(self, bad):
        with pytest.raises(TypeError):
            validate_likert(bad)


class TestInstrument:
    def test_seven_elements_in_paper_order(self):
        inst = team_design_skills_survey()
        assert inst.element_names == ELEMENT_NAMES
        assert len(inst.elements) == 7

    def test_teamwork_verbatim_from_fig2(self):
        tw = team_design_skills_survey().element("Teamwork")
        assert tw.definition.text == (
            "Individuals participate effectively in groups or teams."
        )
        assert len(tw.components) == 4
        assert any("styles of" in c.text for c in tw.components)

    def test_every_element_has_definition_plus_components(self):
        for element in team_design_skills_survey().elements:
            assert element.definition.is_definition
            assert len(element.components) >= 1
            assert element.n_items == 1 + len(element.components)

    def test_item_count(self):
        assert team_design_skills_survey().n_items == 35

    def test_unknown_element_raises(self):
        with pytest.raises(KeyError):
            team_design_skills_survey().element("Witchcraft")

    def test_duplicate_item_ids_rejected(self):
        item = Item("X0", "def", is_definition=True)
        comp = Item("X0", "dup")
        with pytest.raises(ValueError):
            Instrument("t", (Element("E", item, (comp,)),))

    def test_definition_must_be_flagged(self):
        with pytest.raises(ValueError):
            Element("E", Item("a", "t"), (Item("b", "c"),))


def _make_response(student_id="s1", scores=(4, 4, 4, 4, 4)):
    inst = team_design_skills_survey()
    ratings = {}
    for element in inst.elements:
        for category in Category:
            ratings[(element.name, category)] = ElementResponse(
                element=element.name,
                category=category,
                definition=scores[0],
                components=tuple(scores[1:]),
            )
    return StudentResponse(student_id=student_id, ratings=ratings)


class TestResponses:
    def test_validates_against_instrument(self):
        _make_response().validate_against(team_design_skills_survey())

    def test_wrong_component_count_rejected(self):
        response = _make_response(scores=(4, 4, 4))  # 2 components, need 4
        with pytest.raises(ValueError):
            response.validate_against(team_design_skills_survey())

    def test_out_of_range_scores_rejected(self):
        with pytest.raises(ValueError):
            ElementResponse("Teamwork", Category.CLASS_EMPHASIS, 6, (4,))

    def test_missing_rating_raises(self):
        response = StudentResponse(student_id="s9", ratings={})
        with pytest.raises(KeyError):
            response.rating("Teamwork", Category.CLASS_EMPHASIS)

    def test_wave_rejects_duplicate_students(self):
        inst = team_design_skills_survey()
        with pytest.raises(ValueError):
            WaveResponses("w", inst, (_make_response("s1"), _make_response("s1")))

    def test_aligned_with_intersects_students(self):
        inst = team_design_skills_survey()
        w1 = WaveResponses("a", inst, (_make_response("s1"), _make_response("s2")))
        w2 = WaveResponses("b", inst, (_make_response("s2"), _make_response("s3")))
        first, second = w1.aligned_with(w2)
        assert [r.student_id for r in first] == ["s2"]
        assert [r.student_id for r in second] == ["s2"]

    def test_aligned_with_no_overlap_raises(self):
        inst = team_design_skills_survey()
        w1 = WaveResponses("a", inst, (_make_response("s1"),))
        w2 = WaveResponses("b", inst, (_make_response("s2"),))
        with pytest.raises(ValueError):
            w1.aligned_with(w2)


class TestScoring:
    def test_element_score_averages_all_items(self):
        response = _make_response(scores=(5, 4, 4, 4, 3))
        assert element_score(response, "Teamwork", Category.CLASS_EMPHASIS) == 4.0

    def test_overall_average(self):
        response = _make_response(scores=(3, 3, 3, 3, 3))
        assert overall_average(response, Category.PERSONAL_GROWTH) == 3.0

    def test_composite_weights_definition_half(self):
        response = _make_response(scores=(5, 3, 3, 3, 3))
        composite = composite_scores(response, Category.CLASS_EMPHASIS)
        assert composite["Teamwork"] == 4.0  # (5 + 3) / 2
        skill = element_score(response, "Teamwork", Category.CLASS_EMPHASIS)
        assert skill == pytest.approx(3.4)   # (5+3+3+3+3)/5 — different!

    def test_skill_scores_cover_all_elements(self):
        scores = skill_scores(_make_response(), Category.CLASS_EMPHASIS)
        assert set(scores) == set(ELEMENT_NAMES)

    @given(st.lists(st.integers(1, 5), min_size=5, max_size=5))
    @settings(max_examples=25)
    def test_scores_stay_in_likert_range(self, item_scores):
        response = _make_response(scores=tuple(item_scores))
        assert 1.0 <= overall_average(response, Category.CLASS_EMPHASIS) <= 5.0
        for v in composite_scores(response, Category.PERSONAL_GROWTH).values():
            assert 1.0 <= v <= 5.0
