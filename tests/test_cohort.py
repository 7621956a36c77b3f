"""Cohort: students, sections, team formation, coordinators, peer ratings."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cohort import (
    FormationCriteria,
    Gender,
    PeerRating,
    PeerRatingForm,
    Student,
    Team,
    balance_report,
    contribution_summary,
    form_teams,
    generate_cohort,
    make_paper_sections,
    random_teams,
    rotate_coordinators,
)
from repro.cohort import formation
from repro.cohort.formation import (
    _objective,
    _score,
    _snake_draft,
    _SwapFilter,
    _team_terms,
    team_sizes,
)


class TestStudents:
    def test_paper_marginals(self):
        cohort = generate_cohort(seed=2018)
        assert len(cohort) == 124
        assert sum(1 for s in cohort if s.gender is Gender.FEMALE) == 26
        assert sum(1 for s in cohort if s.gender is Gender.MALE) == 98

    def test_deterministic_for_seed(self):
        assert generate_cohort(seed=5) == generate_cohort(seed=5)
        assert generate_cohort(seed=5) != generate_cohort(seed=6)

    def test_unique_ids(self):
        ids = [s.student_id for s in generate_cohort()]
        assert len(set(ids)) == len(ids)

    def test_attribute_ranges(self):
        for s in generate_cohort():
            assert 0.0 <= s.gpa <= 4.3
            assert 0 <= s.programming_experience <= 3
            assert 0.0 <= s.ability_index <= 1.0

    def test_validation_rejects_bad_gpa(self):
        with pytest.raises(ValueError):
            Student("x", Gender.MALE, 5.0, 1, 1, 1, 1)

    def test_validation_rejects_bad_experience(self):
        with pytest.raises(ValueError):
            Student("x", Gender.MALE, 3.0, 4, 1, 1, 1)


class TestSections:
    def test_paper_section_composition(self):
        s1, s2 = make_paper_sections()
        assert (s1.n, s1.n_female) == (62, 16)
        assert (s2.n, s2.n_female) == (62, 10)
        assert s1.n_male == 46 and s2.n_male == 52

    def test_sections_partition_cohort(self):
        s1, s2 = make_paper_sections()
        ids1 = {s.student_id for s in s1.students}
        ids2 = {s.student_id for s in s2.students}
        assert not ids1 & ids2
        assert len(ids1 | ids2) == 124


class TestTeamSizes:
    def test_62_into_13(self):
        sizes = team_sizes(62, 13)
        assert sum(sizes) == 62
        assert sorted(set(sizes)) == [4, 5]
        assert sizes.count(5) == 10 and sizes.count(4) == 3

    def test_rejects_impossible_split(self):
        with pytest.raises(ValueError):
            team_sizes(10, 13)   # would give teams of size 0/1
        with pytest.raises(ValueError):
            team_sizes(100, 13)  # would need teams larger than 5

    @given(st.integers(1, 30))
    @settings(max_examples=30)
    def test_valid_splits_cover_everyone(self, n_teams):
        n_students = n_teams * 4 + (n_teams // 2)  # mix of 4s and 5s
        sizes = team_sizes(n_students, n_teams)
        assert sum(sizes) == n_students
        assert all(4 <= s <= 5 for s in sizes)


class TestFormation:
    def test_sizes_and_partition(self):
        s1, _ = make_paper_sections()
        teams = form_teams(s1.students, 13)
        assert len(teams) == 13
        assert sum(t.size for t in teams) == 62
        ids = [m.student_id for t in teams for m in t.members]
        assert len(set(ids)) == 62   # nobody in two teams

    def test_deterministic(self):
        s1, _ = make_paper_sections()
        a = form_teams(s1.students, 13)
        b = form_teams(s1.students, 13)
        assert [t.members for t in a] == [t.members for t in b]

    def test_beats_random_on_balance(self):
        s1, _ = make_paper_sections()
        formed = balance_report(form_teams(s1.students, 13))
        random = balance_report(random_teams(s1.students, 13, seed=1))
        assert formed["ability_range"] < random["ability_range"]
        assert formed["solo_female_teams"] <= random["solo_female_teams"]

    def test_no_isolated_women(self):
        for section in make_paper_sections():
            teams = form_teams(section.students, 13)
            assert all(t.n_female != 1 for t in teams)

    def test_friend_pairs_separated(self):
        s1, _ = make_paper_sections()
        baseline = form_teams(s1.students, 13)
        # Pick two students the baseline puts together, then forbid them.
        together = baseline[0].members[:2]
        pair = frozenset({together[0].student_id, together[1].student_id})
        criteria = FormationCriteria(friend_pairs=frozenset({pair}))
        teams = form_teams(s1.students, 13, criteria)
        for team in teams:
            ids = {m.student_id for m in team.members}
            assert not pair <= ids

    def test_rejects_duplicate_students(self):
        s1, _ = make_paper_sections()
        doubled = list(s1.students) + [s1.students[0]]
        with pytest.raises(ValueError):
            form_teams(doubled, 13)

    def test_criteria_validation(self):
        with pytest.raises(ValueError):
            FormationCriteria(ability_weight=-1)
        with pytest.raises(ValueError):
            FormationCriteria(friend_pairs=frozenset({frozenset({"a"})}))
        with pytest.raises(ValueError):
            FormationCriteria(max_swap_rounds=-1)
        assert FormationCriteria(max_swap_rounds=0).max_swap_rounds == 0


#: Seed-2018 rosters (team id -> member ids) the study forms; any change to
#: the solver that moves a student shows up here.
GOLDEN_ROSTERS_2018 = {
    "S1T01": ("s017", "s032", "s046", "s048", "s051"),
    "S1T02": ("s011", "s030", "s031", "s056", "s057"),
    "S1T03": ("s005", "s018", "s019", "s043", "s047"),
    "S1T04": ("s006", "s007", "s025", "s039", "s054"),
    "S1T05": ("s013", "s033", "s034", "s055", "s059"),
    "S1T06": ("s002", "s021", "s036", "s041", "s052"),
    "S1T07": ("s020", "s024", "s026", "s045", "s068"),
    "S1T08": ("s022", "s027", "s028", "s044", "s050"),
    "S1T09": ("s003", "s012", "s014", "s035", "s049"),
    "S1T10": ("s001", "s016", "s023", "s053", "s065"),
    "S1T11": ("s009", "s038", "s042", "s058"),
    "S1T12": ("s010", "s029", "s037", "s040"),
    "S1T13": ("s004", "s008", "s015", "s064"),
    "S2T01": ("s063", "s066", "s095", "s105", "s120"),
    "S2T02": ("s061", "s079", "s090", "s098", "s119"),
    "S2T03": ("s062", "s077", "s094", "s102", "s104"),
    "S2T04": ("s070", "s086", "s101", "s109", "s118"),
    "S2T05": ("s069", "s074", "s088", "s089", "s093"),
    "S2T06": ("s060", "s072", "s085", "s110", "s121"),
    "S2T07": ("s076", "s082", "s112", "s116", "s117"),
    "S2T08": ("s071", "s087", "s097", "s103", "s122"),
    "S2T09": ("s075", "s078", "s080", "s081", "s092"),
    "S2T10": ("s073", "s096", "s108", "s111", "s113"),
    "S2T11": ("s067", "s099", "s106", "s114"),
    "S2T12": ("s083", "s091", "s115", "s124"),
    "S2T13": ("s084", "s100", "s107", "s123"),
}


def _reference_objective(teams, criteria):
    """The formation objective recomputed over every team.

    ``teams`` holds ``(ability, is_female, student_id)`` rows, so each
    student's ability is read once and the oracle stays quick.
    """
    means = [sum([s[0] for s in t]) / len(t) for t in teams]
    grand = sum(means) / len(means)
    ability = sum([(m - grand) ** 2 for m in means]) / len(means)
    solo = len([t for t in teams if sum([s[1] for s in t]) == 1])
    friends = 0
    if criteria.friend_pairs:
        for t in teams:
            ids = {s[2] for s in t}
            friends += len([pair for pair in criteria.friend_pairs if pair <= ids])
    return (
        criteria.ability_weight * ability
        + criteria.solo_female_penalty * solo
        + 10.0 * friends
    )


def _rows(teams):
    return [[(s.ability_index, s.gender is Gender.FEMALE, s.student_id) for s in t]
            for t in teams]


def _reference_form_teams(students, n_teams, criteria):
    """Brute-force oracle: snake draft, then first-improvement swaps that
    re-evaluate the whole objective for every candidate."""
    teams = _rows(_snake_draft(students, team_sizes(len(students), n_teams)))
    best = _reference_objective(teams, criteria)
    for _ in range(criteria.max_swap_rounds):
        improved = False
        for a in range(len(teams)):
            for b in range(a + 1, len(teams)):
                for i in range(len(teams[a])):
                    for j in range(len(teams[b])):
                        teams[a][i], teams[b][j] = teams[b][j], teams[a][i]
                        candidate = _reference_objective(teams, criteria)
                        if candidate < best - 1e-12:
                            best = candidate
                            improved = True
                        else:
                            teams[a][i], teams[b][j] = teams[b][j], teams[a][i]
        if not improved:
            break
    return [tuple(sorted(s[2] for s in t)) for t in teams]


def _friend_criteria(students, n_teams):
    """Friend pairs the snake draft puts together, plus one from outside."""
    draft = _snake_draft(students, team_sizes(len(students), n_teams))
    pairs = {frozenset({t[0].student_id, t[1].student_id}) for t in draft[::3]}
    pairs.add(frozenset({students[0].student_id, "outsider"}))
    return FormationCriteria(friend_pairs=frozenset(pairs))


class TestFormationOracle:
    def test_golden_rosters_seed_2018(self):
        rosters = {}
        for index, section in enumerate(make_paper_sections(2018), start=1):
            for team in form_teams(section.students, 13, id_prefix=f"S{index}T"):
                rosters[team.team_id] = tuple(m.student_id for m in team.members)
        assert rosters == GOLDEN_ROSTERS_2018

    def test_filter_strength_seed_2018(self, monkeypatch):
        """Seed 2018 scores 386 assignments exactly across both sections
        (each section's starting score plus every candidate the swap
        filter lets through), so a weaker filter cannot hide behind the
        same rosters."""
        calls = []
        score = formation._score

        def counting(terms, criteria):
            calls.append(1)
            return score(terms, criteria)

        monkeypatch.setattr(formation, "_score", counting)
        for index, section in enumerate(make_paper_sections(2018), start=1):
            form_teams(section.students, 13, id_prefix=f"S{index}T")
        assert len(calls) == 386

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_full_recompute_search(self, seed):
        for section in make_paper_sections(seed):
            students = section.students
            for criteria in (FormationCriteria(), _friend_criteria(students, 13)):
                formed = [
                    tuple(m.student_id for m in t.members)
                    for t in form_teams(students, 13, criteria)
                ]
                assert formed == _reference_form_teams(students, 13, criteria)

    def test_objective_matches_reference(self):
        students = make_paper_sections(3)[0].students
        criteria = _friend_criteria(students, 13)
        for teams in (
            _snake_draft(students, team_sizes(len(students), 13)),
            [list(t.members) for t in form_teams(students, 13, criteria)],
        ):
            assert _objective(teams, criteria) == _reference_objective(_rows(teams), criteria)


@dataclasses.dataclass(frozen=True, order=True)
class _Rated(Student):
    """A student whose ability index is given outright."""

    ability: float = 0.0

    @property
    def ability_index(self) -> float:
        return self.ability


def _rated(students, ability=lambda v: v, gender=None):
    """``students`` as :class:`_Rated`, abilities mapped by ``ability``,
    all of one ``gender`` if given."""
    out = []
    for s in students:
        fields = {f.name: getattr(s, f.name) for f in dataclasses.fields(Student)}
        if gender is not None:
            fields["gender"] = gender
        out.append(_Rated(**fields, ability=ability(s.ability_index)))
    return out


#: (section transform, criteria weights) that stress the swap filter:
#: ties, zero spread, extreme scales, zeroed weights and a single gender.
ADVERSARIAL = {
    "duplicated": (dict(ability=lambda v: round(v * 4) / 4), {}),
    "all_equal": (dict(ability=lambda v: 0.5), {}),
    "scaled_1e6": (dict(ability=lambda v: v * 1e6), {}),
    "scaled_1e-6": (dict(ability=lambda v: v * 1e-6), {}),
    "no_ability_weight": ({}, {"ability_weight": 0.0}),
    "no_solo_penalty": ({}, {"solo_female_penalty": 0.0}),
    "all_female": (dict(gender=Gender.FEMALE), {}),
    "all_male": (dict(gender=Gender.MALE), {}),
}


class TestSwapFilter:
    @pytest.mark.parametrize("kind", sorted(ADVERSARIAL))
    def test_adversarial_sections_match_full_recompute(self, kind):
        section, weights = ADVERSARIAL[kind]
        students = _rated(make_paper_sections(5)[1].students, **section)
        friends = _friend_criteria(students, 13).friend_pairs
        for pairs in (frozenset(), friends):
            criteria = FormationCriteria(friend_pairs=pairs, **weights)
            formed = [
                tuple(m.student_id for m in t.members)
                for t in form_teams(students, 13, criteria)
            ]
            assert formed == _reference_form_teams(students, 13, criteria)

    @pytest.mark.parametrize("kind", sorted(ADVERSARIAL))
    def test_estimate_error_far_below_margin(self, kind):
        """A random walk of swaps, some kept: every estimate is within a
        thousandth of its margin of the exact score of the swapped state.
        Each estimate is read through ``scan`` with no limit, which
        returns the candidate it starts at."""
        rng = random.Random(kind)
        section, weights = ADVERSARIAL[kind]
        students = _rated(make_paper_sections(11)[0].students, **section)
        ids = [s.student_id for s in students]
        pairs = {frozenset(rng.sample(ids, 2)) for _ in range(40)}
        criteria = FormationCriteria(friend_pairs=frozenset(pairs), **weights)
        ability = [s.ability_index for s in students]
        female = [1 if s.gender is Gender.FEMALE else 0 for s in students]
        order = list(range(len(students)))
        rng.shuffle(order)
        rosters, start = [], 0
        for size in team_sizes(len(students), 13):
            rosters.append(order[start:start + size])
            start += size

        def terms_of(roster):
            return _team_terms([ability[k] for k in roster],
                               sum(female[k] for k in roster),
                               {ids[k] for k in roster}, criteria)

        terms = [terms_of(r) for r in rosters]
        swaps = _SwapFilter(rosters, terms, ability, female, ids, criteria)
        kept = 0
        for _ in range(600):
            a, b = sorted(rng.sample(range(len(rosters)), 2))
            i, j = rng.randrange(len(rosters[a])), rng.randrange(len(rosters[b]))
            x, y = rosters[a][i], rosters[b][j]
            found = swaps.scan(a, b, i, j, math.inf)
            assert found[:2] == (i, j)
            approx = found[2]
            rosters[a][i], rosters[b][j] = y, x
            old = terms[a], terms[b]
            terms[a], terms[b] = terms_of(rosters[a]), terms_of(rosters[b])
            exact = _score(terms, criteria)
            assert abs(approx - exact) <= swaps.margin(approx) / 1e3, (approx, exact)
            if rng.random() < 0.3:
                swaps.refresh(a, b, x, y)
                kept += 1
            else:
                rosters[a][i], rosters[b][j] = x, y
                terms[a], terms[b] = old
        assert kept > 100


class TestTeams:
    def _team(self, n=5):
        students = generate_cohort()[:n]
        return Team(team_id="T1", members=tuple(students))

    def test_size_limits(self):
        students = generate_cohort()
        with pytest.raises(ValueError):
            Team("t", tuple(students[:3]))
        with pytest.raises(ValueError):
            Team("t", tuple(students[:6]))

    def test_duplicate_members_rejected(self):
        s = generate_cohort()[0]
        with pytest.raises(ValueError):
            Team("t", (s, s, s, s))

    def test_coordinator_rotates(self):
        team = self._team(5)
        coordinators = rotate_coordinators(team, 5)
        assert len(set(c.student_id for c in coordinators)) == 5

    def test_everyone_coordinates_with_four_members(self):
        team = self._team(4)
        coordinators = rotate_coordinators(team, 5)
        # 5 assignments over 4 members: everyone at least once.
        assert {c.student_id for c in coordinators} == {
            m.student_id for m in team.members
        }

    def test_coordinator_wraps(self):
        team = self._team(4)
        assert team.coordinator_for(5) == team.coordinator_for(1)

    def test_bad_assignment_number(self):
        with pytest.raises(ValueError):
            self._team().coordinator_for(0)


class TestPeerRating:
    def _team(self):
        return Team(team_id="T1", members=tuple(generate_cohort()[:4]))

    def _complete_form(self, team, adjective="satisfactory"):
        ids = [m.student_id for m in team.members]
        ratings = tuple(
            PeerRating(rater_id=a, ratee_id=b, adjective=adjective)
            for a in ids for b in ids if a != b
        )
        return PeerRatingForm(team_id=team.team_id, assignment_number=1, ratings=ratings)

    def test_complete_form_validates(self):
        team = self._team()
        self._complete_form(team).validate_against(team)

    def test_incomplete_form_rejected(self):
        team = self._team()
        form = self._complete_form(team)
        partial = PeerRatingForm(team.team_id, 1, form.ratings[:-1])
        with pytest.raises(ValueError):
            partial.validate_against(team)

    def test_self_rating_rejected(self):
        with pytest.raises(ValueError):
            PeerRating("s1", "s1", "excellent")

    def test_unknown_adjective_rejected(self):
        with pytest.raises(ValueError):
            PeerRating("s1", "s2", "meh")

    def test_contribution_summary(self):
        team = self._team()
        summary = contribution_summary([self._complete_form(team, "very good")])
        assert all(v == pytest.approx(4.5) for v in summary.values())
        assert len(summary) == 4

    def test_non_member_rating_rejected(self):
        team = self._team()
        bad = PeerRatingForm(
            team.team_id, 1,
            (PeerRating("stranger", team.members[0].student_id, "ordinary"),),
        )
        with pytest.raises(ValueError):
            bad.validate_against(team)
