"""The CSc 3210 course mechanics.

- :mod:`repro.course.timeline` — the 15-week semester of Fig. 1: team
  formation in week 1, five two-week assignments, quizzes, midterm/final,
  and the two survey administrations.
- :mod:`repro.course.materials` — the six learning materials ([6]–[11])
  each assignment hands out.
- :mod:`repro.course.assignments` — the five assignments with their
  questions, deliverables, and *executable programs* (each programming
  task is wired to the patternlet / exemplar that implements it).
- :mod:`repro.course.grading` — the grading policy: PBL is 25 % of the
  course grade split equally over the five assignments, peer-rating-based
  zero rules, quizzes and exams.
"""

from repro.course.assignments import (
    Assignment,
    Deliverable,
    all_assignments,
    run_assignment_programs,
)
from repro.course.grading import (
    AssignmentGrade,
    CourseGrade,
    GradingPolicy,
    StudentRecord,
)
from repro.course.materials import MATERIALS, Material
from repro.course.quizzes import Quiz, QuizQuestion, grade_quiz, quiz_bank
from repro.course.simulate import SimulatedGradebook, simulate_gradebook
from repro.course.timeline import Semester, SemesterEvent, paper_timeline

__all__ = [
    "Assignment",
    "AssignmentGrade",
    "CourseGrade",
    "Deliverable",
    "GradingPolicy",
    "MATERIALS",
    "Material",
    "Quiz",
    "QuizQuestion",
    "Semester",
    "SimulatedGradebook",
    "SemesterEvent",
    "StudentRecord",
    "all_assignments",
    "grade_quiz",
    "paper_timeline",
    "quiz_bank",
    "run_assignment_programs",
    "simulate_gradebook",
]
