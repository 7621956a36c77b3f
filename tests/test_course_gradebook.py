"""The simulated gradebook and its integration into the study run."""

import numpy as np
import pytest

from repro.cohort import form_teams, make_paper_sections
from repro.cohort.peer_rating import PeerRating, PeerRatingForm
from repro.course import simulate_gradebook
from repro.course.grading import (
    AssignmentGrade,
    N_ASSIGNMENTS,
    StudentRecord,
    grade_student,
)
from repro.course.simulate import SimulatedGradebook, _clip_score


def _reference_simulate_gradebook(teams, seed=2018, n_offenders=2):
    """``simulate_gradebook`` drawing one scalar at a time: the oracle for
    the block draws, which must consume the stream in the same order."""
    rng = np.random.default_rng(seed + 1)
    all_students = [m for team in teams for m in team.members]
    offender_ids = {
        s.student_id
        for s in rng.choice(np.array(all_students, dtype=object),
                            size=min(n_offenders, len(all_students)),
                            replace=False)
    }
    forms = []
    grades = {}
    team_quality = {
        team.team_id: float(np.clip(rng.normal(82.0 + 14.0 * team.mean_ability, 4.0),
                                    55.0, 100.0))
        for team in teams
    }
    for team in teams:
        member_ids = [m.student_id for m in team.members]
        team_scores = [
            _clip_score(team_quality[team.team_id] + rng.normal(0.0, 3.0))
            for _ in range(N_ASSIGNMENTS)
        ]
        per_member_rating = {m: [] for m in member_ids}
        for assignment_number in range(1, N_ASSIGNMENTS + 1):
            ratings = []
            for rater in member_ids:
                for ratee in member_ids:
                    if rater == ratee:
                        continue
                    offending = ratee in offender_ids and assignment_number >= 2
                    adjective = "no show" if offending else rng.choice(
                        ["excellent", "very good", "satisfactory"],
                        p=[0.3, 0.5, 0.2],
                    )
                    ratings.append(PeerRating(rater, ratee, str(adjective)))
            form = PeerRatingForm(team_id=team.team_id,
                                  assignment_number=assignment_number,
                                  ratings=tuple(ratings))
            form.validate_against(team)
            forms.append(form)
            received = {m: [] for m in member_ids}
            for rating in ratings:
                received[rating.ratee_id].append(rating.value)
            for member, values in received.items():
                per_member_rating[member].append(sum(values) / len(values))
        for member in team.members:
            ability = member.ability_index
            assignment_grades = tuple(
                AssignmentGrade(
                    assignment_number=a + 1,
                    team_score=team_scores[a],
                    peer_rating=float(np.clip(per_member_rating[member.student_id][a],
                                              1.0, 5.0)),
                )
                for a in range(N_ASSIGNMENTS)
            )
            quiz_scores = tuple(
                _clip_score(rng.normal(55.0 + 45.0 * ability, 8.0))
                for _ in range(N_ASSIGNMENTS)
            )
            record = StudentRecord(
                student_id=member.student_id,
                assignment_grades=assignment_grades,
                quiz_scores=quiz_scores,
                midterm=_clip_score(rng.normal(52.0 + 45.0 * ability, 9.0)),
                final=_clip_score(rng.normal(52.0 + 46.0 * ability, 9.0)),
            )
            grades[member.student_id] = grade_student(record)
    return SimulatedGradebook(grades=grades, peer_forms=tuple(forms),
                              offenders=tuple(sorted(offender_ids)))


@pytest.fixture(scope="module")
def teams():
    s1, s2 = make_paper_sections()
    return (form_teams(s1.students, 13, id_prefix="S1T")
            + form_teams(s2.students, 13, id_prefix="S2T"))


@pytest.fixture(scope="module")
def gradebook(teams):
    return simulate_gradebook(teams, seed=2018)


class TestGradebook:
    def test_every_student_graded(self, teams, gradebook):
        assert len(gradebook.grades) == 124
        all_ids = {m.student_id for t in teams for m in t.members}
        assert set(gradebook.grades) == all_ids

    def test_grades_in_range(self, gradebook):
        for grade in gradebook.grades.values():
            assert 0.0 <= grade.total <= 100.0
            assert all(0.0 <= s <= 100.0 for s in grade.pbl_scores)

    def test_offenders_hit_persistence_rule(self, gradebook):
        assert len(gradebook.offenders) == 2
        for student_id in gradebook.offenders:
            scores = gradebook.grades[student_id].pbl_scores
            # Cooperated on A1, zeros from A2 on (two offences then cascade).
            assert scores[0] > 0.0
            assert scores[1:] == (0.0, 0.0, 0.0, 0.0)

    def test_non_offenders_keep_team_scores(self, gradebook):
        cooperative = [
            g for sid, g in gradebook.grades.items()
            if sid not in gradebook.offenders
        ]
        assert all(all(s > 0 for s in g.pbl_scores) for g in cooperative)

    def test_offenders_score_below_cohort_mean(self, gradebook):
        mean = gradebook.mean_total
        for student_id in gradebook.offenders:
            assert gradebook.grades[student_id].total < mean

    def test_peer_forms_complete(self, teams, gradebook):
        # 26 teams x 5 assignments
        assert len(gradebook.peer_forms) == 26 * 5
        by_team = {t.team_id: t for t in teams}
        for form in gradebook.peer_forms[:20]:
            form.validate_against(by_team[form.team_id])

    def test_deterministic(self, teams):
        a = simulate_gradebook(teams, seed=5)
        b = simulate_gradebook(teams, seed=5)
        assert {s: g.total for s, g in a.grades.items()} == {
            s: g.total for s, g in b.grades.items()
        }

    def test_ability_correlates_with_individual_scores(self, teams, gradebook):
        """Quizzes/exams track ability, so totals should correlate with it."""
        from repro.stats.correlation import pearson
        students = {m.student_id: m for t in teams for m in t.members}
        ids = sorted(set(students) - set(gradebook.offenders))
        abilities = [students[sid].ability_index for sid in ids]
        totals = [gradebook.grades[sid].total for sid in ids]
        result = pearson(abilities, totals)
        assert result.r > 0.5
        assert result.p_value < 0.001

    def test_empty_teams_rejected(self):
        with pytest.raises(ValueError):
            simulate_gradebook([])

    def test_negative_offender_count_rejected(self, teams):
        with pytest.raises(ValueError, match="n_offenders"):
            simulate_gradebook(teams, n_offenders=-1)

    @pytest.mark.parametrize("n_offenders", [0, 2, 5])
    @pytest.mark.parametrize("seed", range(8))
    def test_block_draws_match_scalar_draws(self, teams, seed, n_offenders):
        got = simulate_gradebook(teams, seed=seed, n_offenders=n_offenders)
        want = _reference_simulate_gradebook(teams, seed=seed,
                                             n_offenders=n_offenders)
        assert len(got.offenders) == n_offenders
        got_repr, want_repr = repr(got), repr(want)
        same = got_repr == want_repr
        at = next((i for i, (a, b) in enumerate(zip(got_repr, want_repr))
                   if a != b), min(len(got_repr), len(want_repr)))
        assert same, f"first difference at {at}: {got_repr[at - 80:at + 80]!r}"


class TestStudyIntegration:
    def test_study_result_carries_gradebook(self, study_result):
        assert study_result.gradebook is not None
        assert len(study_result.gradebook.grades) == 124

    def test_gradebook_skipped_without_teamwork(self):
        from repro.core import PBLStudy
        result = PBLStudy(seed=1, simulate_teamwork=False).run()
        assert result.gradebook is None
        assert result.artifacts == ()
