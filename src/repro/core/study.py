"""The end-to-end study driver.

:class:`PBLStudy` runs the whole case study the way the paper did:

1. generate the cohort with the published marginals and split it into
   the two sections;
2. form 13 diverse balanced teams per section;
3. run the course: simulate the gradebook.  Each assignment's parallel
   programs and each team's teamwork technologies (workspace, repository,
   report doc, video) run when :class:`StudyResult` is first asked for them;
4. administer the survey at the mid-point and the end (simulated
   responses from the calibrated latent-trait model);
5. run the full statistical analysis (Tables 1–6) as a one-shard
   sufficient-statistics run over the raw item tensor — the path the
   mega-cohort streams — and evaluate H1–H3.  The typed response sheets
   (:attr:`StudyResult.waves`) are assembled only when read;
   :func:`~repro.core.analysis.analyze_waves` over them returns the same
   analysis bit for bit.

Everything is seeded and deterministic; ``PBLStudy.default().run()``
regenerates the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Mapping

from repro.cohort.formation import form_teams
from repro.cohort.sections import Section, make_paper_sections
from repro.cohort.teams import Team
from repro.core.analysis import StudyAnalysis, SurveyStats, analyze
# Not called here; perfbench wraps ``core.study.analyze_waves`` by name.
from repro.core.analysis import analyze_waves  # noqa: F401
from repro.core.hypotheses import HypothesisOutcome, evaluate_hypotheses
from repro.core.targets import PAPER, PaperTargets, simulation_targets
from repro.course.assignments import all_assignments, run_assignment_programs
from repro.course.simulate import SimulatedGradebook, simulate_gradebook
from repro.course.timeline import Semester, paper_timeline
from repro.simulation.assemble import assemble_waves
from repro.simulation.calibration import CalibrationResult, calibrate
from repro.simulation.model import RawScores, ResponseModel
from repro.survey.instrument import team_design_skills_survey
from repro.survey.responses import WaveResponses

if TYPE_CHECKING:
    from repro.teamtech.docs import CollaborativeDoc
    from repro.teamtech.github import Repository
    from repro.teamtech.slack import Workspace
    from repro.teamtech.youtube import VideoChannel

__all__ = ["PBLStudy", "StudyResult", "TeamArtifacts"]

N_TEAMS_PER_SECTION = 13


@dataclass(frozen=True)
class TeamArtifacts:
    """The teamwork-technology footprint of one team for one assignment."""

    team_id: str
    workspace: Workspace
    repository: Repository
    report: CollaborativeDoc
    channel: VideoChannel


def _team_artifacts(team: Team) -> TeamArtifacts:
    """Drive the four required technologies for one team (A1's task)."""
    from repro.teamtech.docs import CollaborativeDoc
    from repro.teamtech.github import Repository
    from repro.teamtech.slack import Workspace
    from repro.teamtech.youtube import (
        REQUIRED_POINTS,
        Segment,
        Video,
        VideoChannel,
    )

    members = [m.student_id for m in team.members]
    workspace = Workspace(team_id=team.team_id)
    workspace.create_channel("general", set(members))
    for member in members:
        workspace.post("general", member, f"{member} checking in for A1")

    repo = Repository(name=f"{team.team_id}-pbl")
    repo.commit("main", members[0], "initial commit", {"README.md": team.team_id})
    repo.create_branch("a1")
    repo.commit("a1", members[1 % len(members)], "ground rules",
                {"ground_rules.md": "work norms; meeting norms"})
    pr = repo.open_pull_request("a1", members[1 % len(members)], "Assignment 1")
    repo.merge(pr, approver=members[0])

    doc = CollaborativeDoc(title=f"{team.team_id} report")
    for i, member in enumerate(members):
        doc.edit(member, f"section-{i + 1}", f"contribution by {member}")

    channel = VideoChannel(team_id=team.team_id)
    minutes_each = round(7.0 / len(members), 2)
    video = Video(
        title=f"{team.team_id} A1 presentation",
        assignment_number=1,
        segments=tuple(
            Segment(speaker=m, minutes=minutes_each,
                    points_covered=REQUIRED_POINTS)
            for m in members
        ),
    )
    channel.upload(video, members)
    return TeamArtifacts(
        team_id=team.team_id, workspace=workspace, repository=repo,
        report=doc, channel=channel,
    )


@dataclass(frozen=True)
class StudyResult:
    """Everything a study run produces."""

    seed: int
    sections: tuple[Section, Section]
    teams: tuple[Team, ...]
    timeline: Semester
    gradebook: SimulatedGradebook | None   # None: teamwork not simulated
    calibration: CalibrationResult
    raw: RawScores                      # the generated item tensor
    student_ids: tuple[str, ...]        # its row order (sorted ids)
    analysis: StudyAnalysis
    hypotheses: tuple[HypothesisOutcome, ...]

    @cached_property
    def waves(self) -> Mapping[str, WaveResponses]:
        """Both waves' typed response sheets, assembled on first read."""
        return assemble_waves(self.raw, team_design_skills_survey(),
                              self.student_ids)

    @cached_property
    def program_outputs(self) -> Mapping[int, Mapping[str, Any]]:
        """Assignment number -> program name -> result, run on first read."""
        return {assignment.number: run_assignment_programs(assignment)
                for assignment in all_assignments()}

    @cached_property
    def artifacts(self) -> tuple[TeamArtifacts, ...]:
        """Each team's teamwork-technology footprint, built on first read."""
        if self.gradebook is None:
            return ()
        return tuple(_team_artifacts(team) for team in self.teams)

    @property
    def n_students(self) -> int:
        return sum(s.n for s in self.sections)

    @property
    def all_hypotheses_supported(self) -> bool:
        return all(h.supported for h in self.hypotheses)


@dataclass(frozen=True)
class PBLStudy:
    """Study configuration."""

    seed: int = 2018
    paper: PaperTargets = PAPER
    simulate_teamwork: bool = True

    @classmethod
    def default(cls, seed: int = 2018) -> "PBLStudy":
        return cls(seed=seed)

    # -- pieces -----------------------------------------------------------

    def _teams(self, sections: tuple[Section, Section]) -> tuple[Team, ...]:
        teams: list[Team] = []
        for index, section in enumerate(sections, start=1):
            teams.extend(
                form_teams(section.students, N_TEAMS_PER_SECTION,
                           id_prefix=f"S{index}T")
            )
        return tuple(teams)

    # -- the run -----------------------------------------------------------

    def run(self) -> StudyResult:
        """Execute the full study."""
        sections = make_paper_sections(seed=self.seed)
        teams = self._teams(sections)
        timeline = paper_timeline()

        gradebook = (simulate_gradebook(teams, seed=self.seed)
                     if self.simulate_teamwork else None)

        # Survey simulation: calibrate the response model to the paper's
        # published statistics, then generate raw item-level responses.
        targets = simulation_targets(self.paper)
        model = ResponseModel(
            skills=targets.skills, n_students=targets.n_students, seed=self.seed
        )
        calibration = calibrate(model, targets)
        raw = model.generate(calibration.knobs)
        student_ids = tuple(sorted(
            s.student_id for section in sections for s in section.students
        ))

        analysis = analyze(SurveyStats.from_scores(raw.skills, raw.scores))
        hypotheses = evaluate_hypotheses(analysis)

        return StudyResult(
            seed=self.seed,
            sections=sections,
            teams=teams,
            timeline=timeline,
            gradebook=gradebook,
            calibration=calibration,
            raw=raw,
            student_ids=student_ids,
            analysis=analysis,
            hypotheses=hypotheses,
        )
