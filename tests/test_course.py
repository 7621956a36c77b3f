"""Course mechanics: timeline, assignments, grading, materials."""

import pytest

from repro.course import (
    Assignment,
    AssignmentGrade,
    GradingPolicy,
    MATERIALS,
    StudentRecord,
    all_assignments,
    paper_timeline,
    run_assignment_programs,
)
from repro.course.grading import grade_student
from repro.course.materials import MATERIALS_BY_ASSIGNMENT
from repro.course.timeline import EventKind, Semester, SemesterEvent


class TestTimeline:
    def test_fifteen_weeks(self):
        assert paper_timeline().n_weeks == 15

    def test_five_two_week_assignments(self):
        assignments = paper_timeline().of_kind(EventKind.ASSIGNMENT)
        assert len(assignments) == 5
        assert all(a.duration_weeks == 2 for a in assignments)

    def test_assignments_back_to_back_no_overlap(self):
        assignments = paper_timeline().of_kind(EventKind.ASSIGNMENT)
        for first, second in zip(assignments, assignments[1:]):
            assert second.start_week == first.end_week + 1

    def test_team_formation_week_one(self):
        teams = paper_timeline().of_kind(EventKind.TEAM_FORMATION)
        assert teams[0].start_week == 1

    def test_surveys_at_midpoint_and_end(self):
        assert paper_timeline().survey_weeks == (8, 15)

    def test_assignments_span_weeks_2_to_11_and_final_in_week_15(self):
        timeline = paper_timeline()
        assignments = timeline.of_kind(EventKind.ASSIGNMENT)
        assert assignments[0].start_week == 2
        assert assignments[-1].end_week == 11
        assert timeline.of_kind(EventKind.FINAL)[0].start_week == 15

    def test_quiz_after_each_assignment(self):
        timeline = paper_timeline()
        quizzes = timeline.of_kind(EventKind.QUIZ)
        assignments = timeline.of_kind(EventKind.ASSIGNMENT)
        assert len(quizzes) == 5
        for quiz, assignment in zip(quizzes, assignments):
            assert quiz.start_week == assignment.end_week + 1

    def test_week_events_lookup(self):
        events = paper_timeline().week_events(8)
        kinds = {e.kind for e in events}
        assert EventKind.MIDTERM in kinds and EventKind.SURVEY in kinds

    def test_event_validation(self):
        with pytest.raises(ValueError):
            SemesterEvent(EventKind.QUIZ, "bad", 3, 2)

    def test_semester_rejects_event_past_end(self):
        event = SemesterEvent(EventKind.QUIZ, "late", 16, 16)
        with pytest.raises(ValueError):
            Semester(events=(event,))

    def test_semester_rejects_overlapping_assignments(self):
        events = (
            SemesterEvent(EventKind.ASSIGNMENT, "a1", 2, 3),
            SemesterEvent(EventKind.ASSIGNMENT, "a2", 3, 4),
        )
        with pytest.raises(ValueError):
            Semester(events=events)

    def test_render_gantt(self):
        text = paper_timeline().render()
        assert "assignment 1" in text and "survey 2" in text


class TestAssignments:
    def test_five_assignments_in_order(self):
        assignments = all_assignments()
        assert [a.number for a in assignments] == [1, 2, 3, 4, 5]

    def test_first_is_soft_skills_rest_technical(self):
        assignments = all_assignments()
        assert assignments[0].focus == "soft skills"
        assert all(a.focus == "parallel programming" for a in assignments[1:])

    def test_all_two_weeks(self):
        assert all(a.duration_weeks == 2 for a in all_assignments())

    def test_materials_mapping(self):
        for assignment in all_assignments():
            for key in assignment.material_keys:
                assert key in MATERIALS
        assert MATERIALS_BY_ASSIGNMENT[1] == ("teamwork",)
        assert "mapreduce" in MATERIALS_BY_ASSIGNMENT[5]

    def test_standard_deliverables_on_every_assignment(self):
        for assignment in all_assignments():
            names = [d.name for d in assignment.deliverables]
            assert names == ["planning", "collaboration", "report", "video"]

    def test_assignment2_programs_run(self):
        a2 = all_assignments()[1]
        outputs = run_assignment_programs(a2)
        assert outputs["pi_setup"].desktop_visible()
        assert len(outputs["fork_join"].during) == 4
        assert outputs["shared_memory_race"].racy_races_detected > 0

    def test_assignment3_programs_run(self):
        outputs = run_assignment_programs(all_assignments()[2])
        assert outputs["loop_reduction"].reduction_matches_sequential
        assert "static,1" in outputs["loop_scheduling"].traces

    def test_assignment4_programs_run(self):
        outputs = run_assignment_programs(all_assignments()[3])
        assert outputs["trapezoid_integration"].value == pytest.approx(2.0, abs=1e-3)
        assert outputs["barrier_coordination"].barrier_respected
        assert outputs["master_worker"].master_did_no_tasks

    def test_assignment5_programs_run(self):
        outputs = run_assignment_programs(all_assignments()[4])
        assert outputs["mapreduce_wordcount"].as_dict()["map"] == 5
        assert outputs["drug_design_baseline"].answers_agree()
        assert (
            outputs["drug_design_ligand_7"].config.max_ligand == 7
        )


class TestGrading:
    def _record(self, peer_ratings):
        grades = tuple(
            AssignmentGrade(i + 1, 80.0, rating)
            for i, rating in enumerate(peer_ratings)
        )
        return StudentRecord("s1", grades, (70.0,) * 5, 75.0, 85.0)

    def test_weights_sum_to_one(self):
        with pytest.raises(ValueError):
            GradingPolicy(pbl_weight=0.5)

    def test_pbl_is_quarter_split_five_ways(self):
        policy = GradingPolicy()
        assert policy.per_assignment_weight == pytest.approx(0.05)

    def test_cooperating_student_gets_team_grades(self):
        grade = grade_student(self._record([4.5] * 5))
        assert grade.pbl_scores == (80.0,) * 5
        assert grade.pbl_component == pytest.approx(80.0 * 0.25)

    def test_non_cooperation_zeros_that_assignment(self):
        grade = grade_student(self._record([4.5, 1.5, 4.5, 4.5, 4.5]))
        assert grade.pbl_scores == (80.0, 0.0, 80.0, 80.0, 80.0)

    def test_persistent_problem_zeros_remaining(self):
        grade = grade_student(self._record([1.5, 1.5, 4.5, 4.5, 4.5]))
        assert grade.pbl_scores == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_persistence_rule_can_be_disabled(self):
        policy = GradingPolicy(persistence_rule=False)
        grade = grade_student(self._record([1.5, 1.5, 4.5, 4.5, 4.5]), policy)
        assert grade.pbl_scores == (0.0, 0.0, 80.0, 80.0, 80.0)

    def test_total_composition(self):
        grade = grade_student(self._record([4.5] * 5))
        expected = 80 * 0.25 + 70 * 0.15 + 75 * 0.25 + 85 * 0.35
        assert grade.total == pytest.approx(expected)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            StudentRecord("s", (), (70.0,) * 5, 75.0, 85.0)
        with pytest.raises(ValueError):
            AssignmentGrade(6, 80.0, 4.0)
        with pytest.raises(ValueError):
            AssignmentGrade(1, 120.0, 4.0)
