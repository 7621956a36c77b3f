"""Simulate the course mechanics end to end for one team.

Usage::

    python examples/course_simulation.py

Forms the two sections' teams, walks one team through the semester —
Pi bring-up, peer ratings, and grading with the peer-rating zero rules —
and prints the Fig. 1 timeline it all hangs off.
"""

from __future__ import annotations

from repro.cohort import (
    PeerRating,
    PeerRatingForm,
    balance_report,
    contribution_summary,
    form_teams,
    make_paper_sections,
    random_teams,
    rotate_coordinators,
)
from repro.course import all_assignments
from repro.course.grading import AssignmentGrade, StudentRecord, grade_student
from repro.reporting import render_fig1_timeline
from repro.rpi import PiSetup


def main() -> None:
    print(render_fig1_timeline())

    section1, section2 = make_paper_sections()
    print(f"\nsections: {section1.section_id} ({section1.n} students, "
          f"{section1.n_female} women), {section2.section_id} "
          f"({section2.n} students, {section2.n_female} women)")

    teams = form_teams(section1.students, 13, id_prefix="S1T")
    print(f"formed {len(teams)} teams; balance: {balance_report(teams)}")
    print(f"random-team baseline:        {balance_report(random_teams(section1.students, 13))}")

    team = teams[0]
    members = [m.student_id for m in team.members]
    print(f"\nfollowing team {team.team_id}: {members}")
    coordinators = rotate_coordinators(team, 5)
    print("coordinator per assignment: "
          + ", ".join(f"A{i + 1}:{c.student_id}" for i, c in enumerate(coordinators)))

    print("\nAssignment 2 bring-up:")
    setup = PiSetup.quickstart()
    print(f"  steps performed: {[s.value for s in setup.completed]}")
    print(f"  desktop visible: {setup.desktop_visible()}")

    print("\npeer ratings for Assignment 1:")
    form = PeerRatingForm(
        team_id=team.team_id, assignment_number=1,
        ratings=tuple(
            PeerRating(rater, ratee, "very good" if ratee != members[-1] else "marginal")
            for rater in members for ratee in members if rater != ratee
        ),
    )
    form.validate_against(team)
    summary = contribution_summary([form])
    for student, rating in sorted(summary.items()):
        print(f"  {student}: mean received rating {rating:.2f}")

    print("\ngrades under the paper's policy (A3 non-cooperation example):")
    record = StudentRecord(
        student_id=members[0],
        assignment_grades=tuple(
            AssignmentGrade(i + 1, 88.0, 4.5 if i != 2 else 1.5) for i in range(5)
        ),
        quiz_scores=(82.0, 75.0, 90.0, 68.0, 85.0),
        midterm=79.0,
        final=84.0,
    )
    grade = grade_student(record)
    print(f"  per-assignment PBL scores: {grade.pbl_scores}")
    print(f"  course total: {grade.total:.1f}")

    print(f"\nassignment catalogue: "
          f"{[(a.number, a.title) for a in all_assignments()]}")


if __name__ == "__main__":
    main()
