"""The auto-graded quiz bank and survey reliability analysis."""

import pytest

from repro.course import grade_quiz, quiz_bank
from repro.survey import Category
from repro.survey.reliability import wave_reliability


class TestQuizBank:
    def test_five_quizzes_one_per_assignment(self):
        quizzes = quiz_bank()
        assert [q.assignment_number for q in quizzes] == [1, 2, 3, 4, 5]
        assert all(len(q.questions) >= 2 for q in quizzes)

    def test_answers_come_from_the_substrate(self):
        quizzes = quiz_bank()
        quiz2 = quizzes[1]
        # "How many cores" is answered by the board model, not a literal.
        core_question = quiz2.questions[0]
        assert core_question.answer() == 4
        flynn_question = quizzes[2].questions[0]
        assert flynn_question.answer() == "SIMD"
        schedule_question = quizzes[2].questions[1]
        assert schedule_question.answer() == [0, 1, 4, 5]

    def test_perfect_score(self):
        for quiz in quiz_bank():
            responses = tuple(q.answer() for q in quiz.questions)
            assert grade_quiz(quiz, responses) == 100.0

    def test_all_wrong_scores_zero(self):
        quiz = quiz_bank()[4]
        responses = tuple("nonsense" for _ in quiz.questions)
        assert grade_quiz(quiz, responses) == 0.0

    def test_partial_credit(self):
        quiz = quiz_bank()[1]
        answers = [q.answer() for q in quiz.questions]
        answers[-1] = "wrong"
        score = grade_quiz(quiz, tuple(answers))
        assert 0.0 < score < 100.0

    def test_response_count_validated(self):
        quiz = quiz_bank()[0]
        with pytest.raises(ValueError):
            grade_quiz(quiz, ("only one",))


class TestSurveyReliability:
    def test_generated_waves_internally_consistent(self, study_result):
        """The latent-trait model gives every element a real common factor,
        so alpha should be at least 'acceptable' for every element."""
        wave = study_result.waves["first_half"]
        for category in Category:
            alphas = wave_reliability(wave, category)
            assert set(alphas) == set(wave.instrument.element_names)
            for element, result in alphas.items():
                assert result.alpha > 0.6, (element, category, result.alpha)
                assert result.n_items == 5
                assert result.n_respondents == 124

    def test_alpha_reported_with_interpretation(self, study_result):
        wave = study_result.waves["second_half"]
        alphas = wave_reliability(wave, Category.PERSONAL_GROWTH)
        text = str(alphas["Teamwork"])
        assert "Cronbach's alpha" in text
