"""The auto-graded quiz bank."""

import pytest

from repro.course import grade_quiz, quiz_bank


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
