"""Simulate the gradebook for a full course run.

The paper's grading machinery (team scores, peer ratings with the zero
rules, five quizzes, midterm, final) needs inputs; this module generates
them, seeded and ability-linked:

- each team's assignment scores sit near a team-quality baseline (the
  rubric's realistic range) with per-assignment noise;
- peer ratings are cooperative for almost everyone; a small number of
  deterministic "offenders" trigger the paper's zero rules so the policy
  path is exercised in every study run;
- individual quiz/exam scores track the student's ability index plus
  noise.

The output is one :class:`~repro.course.grading.CourseGrade` per student.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cohort.peer_rating import PeerRating, PeerRatingForm
from repro.cohort.teams import Team
from repro.course.grading import (
    AssignmentGrade,
    CourseGrade,
    N_ASSIGNMENTS,
    StudentRecord,
    grade_student,
)

__all__ = ["SimulatedGradebook", "simulate_gradebook"]


@dataclass(frozen=True)
class SimulatedGradebook:
    """Everything the grade simulation produced."""

    grades: dict[str, CourseGrade]
    peer_forms: tuple[PeerRatingForm, ...]
    offenders: tuple[str, ...]

    @property
    def mean_total(self) -> float:
        totals = [g.total for g in self.grades.values()]
        return sum(totals) / len(totals)


#: Ratings a cooperating member receives, with the CDF ``rng.choice``
#: builds from their probabilities 0.3, 0.5 and 0.2.
_COOPERATIVE = ("excellent", "very good", "satisfactory")
_COOPERATIVE_CDF = np.array([0.3, 0.5, 0.2]).cumsum()
_COOPERATIVE_CDF /= _COOPERATIVE_CDF[-1]


def _clip_score(value: float) -> float:
    return float(min(100.0, max(0.0, value)))


def simulate_gradebook(
    teams: Sequence[Team],
    seed: int = 2018,
    n_offenders: int = 2,
) -> SimulatedGradebook:
    """Generate and grade a full semester for every student.

    ``n_offenders`` students (chosen deterministically from the seed) stop
    cooperating from assignment 2 on — enough to exercise both the
    single-assignment zero and the persistence rule.
    """
    if not teams:
        raise ValueError("need at least one team")
    if n_offenders < 0:
        raise ValueError(f"n_offenders must be >= 0, got {n_offenders}")
    rng = np.random.default_rng(seed + 1)

    all_students = [m for team in teams for m in team.members]
    offender_ids = {
        s.student_id
        for s in rng.choice(np.array(all_students, dtype=object),
                            size=min(n_offenders, len(all_students)),
                            replace=False)
    }

    forms: list[PeerRatingForm] = []
    grades: dict[str, CourseGrade] = {}

    team_quality = {
        team.team_id: min(100.0, max(55.0, rng.normal(82.0 + 14.0 * team.mean_ability,
                                                      4.0)))
        for team in teams
    }

    for team in teams:
        member_ids = [m.student_id for m in team.members]
        team_scores = [
            _clip_score(team_quality[team.team_id] + noise)
            for noise in rng.normal(0.0, 3.0, size=N_ASSIGNMENTS)
        ]
        # Peer ratings per assignment, in form order.  A rating of an
        # offender from assignment 2 on is "no show" and draws nothing;
        # every other rating takes one uniform from a single block, mapped
        # as ``rng.choice(_COOPERATIVE, p=...)`` maps its own draw.
        pairs = [(rater, ratee) for rater in member_ids
                 for ratee in member_ids if rater != ratee]
        offending = [
            [ratee in offender_ids and assignment_number >= 2
             for _rater, ratee in pairs]
            for assignment_number in range(1, N_ASSIGNMENTS + 1)
        ]
        n_draws = sum(row.count(False) for row in offending)
        picks = iter(_COOPERATIVE_CDF.searchsorted(rng.random(n_draws),
                                                   side="right").tolist())
        per_member_rating: dict[str, list[float]] = {m: [] for m in member_ids}
        for assignment_number, row in enumerate(offending, start=1):
            ratings = tuple(
                PeerRating(rater, ratee,
                           "no show" if off else _COOPERATIVE[next(picks)])
                for (rater, ratee), off in zip(pairs, row)
            )
            form = PeerRatingForm(
                team_id=team.team_id,
                assignment_number=assignment_number,
                ratings=ratings,
            )
            form.validate_against(team)
            forms.append(form)
            received: dict[str, list[float]] = {m: [] for m in member_ids}
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
                    peer_rating=min(5.0, max(1.0, per_member_rating[member.student_id][a])),
                )
                for a in range(N_ASSIGNMENTS)
            )
            quiz_scores = tuple(
                _clip_score(score)
                for score in rng.normal(55.0 + 45.0 * ability, 8.0,
                                        size=N_ASSIGNMENTS)
            )
            record = StudentRecord(
                student_id=member.student_id,
                assignment_grades=assignment_grades,
                quiz_scores=quiz_scores,
                midterm=_clip_score(rng.normal(52.0 + 45.0 * ability, 9.0)),
                final=_clip_score(rng.normal(52.0 + 46.0 * ability, 9.0)),
            )
            grades[member.student_id] = grade_student(record)

    return SimulatedGradebook(
        grades=grades,
        peer_forms=tuple(forms),
        offenders=tuple(sorted(offender_ids)),
    )
