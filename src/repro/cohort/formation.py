"""Multi-criteria balanced team formation.

The paper: "students in each section were organized into thirteen diverse
groups (up to five per group) based on the following criteria: gender,
system and programming experience, experience in group work, GPA, and
technical writing experience.  These criteria are intended to balance
groups in terms of ability and assure a mixed gender and avoidance of
predetermined groups of friends.  Having the instructor form teams based
on predetermined criteria has been found to be more effective than when
students form their own [Oakley et al. 2004]."

We implement that as an optimisation problem:

1. **ability balance** — minimise the spread of team-mean ability
   (:attr:`Student.ability_index`, which folds in GPA and all four
   experience levels);
2. **mixed gender** — avoid teams with exactly one woman (Oakley et al.
   recommend either zero or at least two, so no one is isolated);
3. **friend avoidance** — an optional set of "friend pairs" that must not
   be placed together.

The solver is a deterministic snake draft (sorted by ability) followed by
a local-search improvement phase over pairwise swaps — small-instance
exact enough in practice, and every invariant is property-tested.  The
objective is built from per-team terms (mean ability, solo-woman flag,
friend pairs together), so the swap search evaluates each candidate by
recomputing only the two teams the swap touches and combining them with
the cached terms of the rest — the same floats, hence the same decisions,
as recomputing the whole objective.  Most candidates never get that far:
one scan per block of two teams (:meth:`_SwapFilter.scan`) reads the
block's shared terms once and estimates each candidate in O(1) from
running aggregates; an estimate that, less a margin far above its
rounding error, cannot improve is skipped, and the scan stops at the
first candidate that may, hands it to the exact path and is resumed
after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cohort.students import Gender, Student
from repro.cohort.teams import MAX_TEAM_SIZE, MIN_TEAM_SIZE, Team

__all__ = ["FormationCriteria", "form_teams", "random_teams", "balance_report"]


@dataclass(frozen=True)
class FormationCriteria:
    """Weights and constraints of the formation objective."""

    ability_weight: float = 1.0
    solo_female_penalty: float = 1.0
    friend_pairs: frozenset[frozenset[str]] = field(default_factory=frozenset)
    max_swap_rounds: int = 200

    def __post_init__(self) -> None:
        if self.ability_weight < 0 or self.solo_female_penalty < 0:
            raise ValueError("criteria weights must be non-negative")
        if self.max_swap_rounds < 0:
            raise ValueError(f"max_swap_rounds must be >= 0, got {self.max_swap_rounds}")
        for pair in self.friend_pairs:
            if len(pair) != 2:
                raise ValueError(f"friend pair must contain exactly 2 ids, got {sorted(pair)}")


def team_sizes(n_students: int, n_teams: int) -> list[int]:
    """Sizes of ``n_teams`` teams covering ``n_students``, each 4 or 5.

    Larger teams first (62 students / 13 teams -> ten 5s then three 4s).
    """
    if n_teams < 1:
        raise ValueError(f"n_teams must be >= 1, got {n_teams}")
    base = n_students // n_teams
    remainder = n_students % n_teams
    sizes = [base + 1] * remainder + [base] * (n_teams - remainder)
    bad = [s for s in sizes if not MIN_TEAM_SIZE <= s <= MAX_TEAM_SIZE]
    if bad:
        raise ValueError(
            f"{n_students} students cannot form {n_teams} teams of "
            f"{MIN_TEAM_SIZE}-{MAX_TEAM_SIZE}: got sizes {sorted(set(sizes))}"
        )
    return sizes


def _team_terms(
    abilities: Sequence[float], n_female: int, ids: set[str], criteria: FormationCriteria
) -> tuple[float, int, int]:
    """One team's objective terms: mean ability, solo-woman flag, friend pairs."""
    mean = sum(abilities) / len(abilities)
    solo = 1 if n_female == 1 else 0
    friends = len([pair for pair in criteria.friend_pairs if pair <= ids])
    return mean, solo, friends


def _score(terms: Sequence[tuple[float, int, int]], criteria: FormationCriteria) -> float:
    """Lower is better: ability spread + gender-isolation + friend penalties."""
    means = [mean for mean, _, _ in terms]
    grand = sum(means) / len(means)
    ability = sum([(m - grand) ** 2 for m in means]) / len(means)
    solo = sum([flag for _, flag, _ in terms])
    friends = sum([count for _, _, count in terms])
    return (
        criteria.ability_weight * ability
        + criteria.solo_female_penalty * solo
        + 10.0 * friends  # hard-ish constraint: dominated by any swap that fixes it
    )


def _objective(
    teams: list[list[Student]], criteria: FormationCriteria
) -> float:
    """The formation objective of a whole assignment (see :func:`_score`)."""
    return _score(
        [
            _team_terms(
                [s.ability_index for s in t],
                sum(1 for s in t if s.gender is Gender.FEMALE),
                {s.student_id for s in t},
                criteria,
            )
            for t in teams
        ],
        criteria,
    )


def _snake_draft(students: Sequence[Student], sizes: list[int]) -> list[list[Student]]:
    """Deterministic snake draft by descending ability."""
    n_teams = len(sizes)
    ranked = sorted(students, key=lambda s: (-s.ability_index, s.student_id))
    teams: list[list[Student]] = [[] for _ in range(n_teams)]
    order = list(range(n_teams))
    idx = 0
    direction = 1
    for student in ranked:
        # Find next team (in snake order) that still has capacity.
        for _ in range(2 * n_teams):
            t = order[idx]
            if len(teams[t]) < sizes[t]:
                teams[t].append(student)
                break
            idx += direction
            if idx == n_teams:
                idx, direction = n_teams - 1, -1
            elif idx == -1:
                idx, direction = 0, 1
        else:  # pragma: no cover - sizes guarantee capacity exists
            raise AssertionError("no team with remaining capacity")
        idx += direction
        if idx == n_teams:
            idx, direction = n_teams - 1, -1
        elif idx == -1:
            idx, direction = 0, 1
    return teams


class _SwapFilter:
    """Running aggregates of an assignment, for O(1) swap estimates.

    Holds the grand mean ``G`` of the team means, their sum of squared
    deviations ``S = sum((m - G)**2)``, each team's female count, the
    solo-woman and friend-pair totals, and, per team, how many friends
    each student has in it.  :meth:`scan` estimates the score after the
    swap of student ``x`` (team ``a``) with ``y`` (team ``b``) from
    these alone:

    - ``m_a' = m_a + d/n_a`` and ``m_b' = m_b - d/n_b``, where ``d`` is
      ``ability[y] - ability[x]``, so ``G' = G + (d/n_a - d/n_b)/T``;
    - ``sum((m' - G')**2) = sum((m' - G)**2) - T*(G' - G)**2`` (the
      shifted-sum identity), with ``sum((m' - G)**2)`` equal to ``S``
      less the two old terms plus the two new ones;
    - the solo flags from the two new female counts, and the friend
      pairs from the per-team friend counts, both exact integers.

    The estimate differs from :func:`_score` of the swapped assignment
    only by float rounding.  Every float involved is bounded by a small
    multiple of ``M = max|ability|`` (means, deviations) or ``M**2``
    (squares), so with unit roundoff ``u = 2**-53``, ``n`` the largest
    team and ``T`` the team count, forward error analysis gives
    ``|estimate - exact| <= 16*(n + T + 3)*u*w_a*M**2 + 8*u*score``
    (the first part from the summed means, deviations and squares on
    both sides, the second from the final weighted sum; the solo and
    friend terms are the same integers on both sides).  :meth:`margin`
    is ``1e-9*(|estimate| + (n + T)*w_a*M**2)``: above that bound by a
    factor of at least 10**5 at any scale of the abilities, since both
    sides scale with ``M**2`` and with the score.  After every accepted
    swap (:meth:`refresh`) the float aggregates are recomputed from the
    exact terms, so errors never accumulate, and the integer counts are
    updated for the two students who moved.
    """

    def __init__(
        self,
        rosters: list[list[int]],
        terms: list[tuple[float, int, int]],
        ability: Sequence[float],
        female: Sequence[int],
        ident: Sequence[str],
        criteria: FormationCriteria,
    ) -> None:
        self.rosters = rosters
        self.terms = terms
        self.ability = ability
        self.female = female
        self.criteria = criteria
        # partners[k]: the students k must not share a team with.
        position = {sid: k for k, sid in enumerate(ident)}
        partners: list[set[int]] = [set() for _ in ident]
        for pair in criteria.friend_pairs:
            p, q = sorted(pair)
            if p in position and q in position:
                partners[position[p]].add(position[q])
                partners[position[q]].add(position[p])
        self.partners = partners
        self.sizes = [len(r) for r in rosters]
        self.n_teams = len(rosters)
        top = max([abs(v) for v in ability])
        self.scale = (
            (max(self.sizes) + self.n_teams) * criteria.ability_weight * top * top
        )
        self.n_female = [sum([female[k] for k in r]) for r in rosters]
        self.friends_in = [[len(p.intersection(r)) for p in partners] for r in rosters]
        self._total()

    def _total(self) -> None:
        means = [mean for mean, _, _ in self.terms]
        self.grand = sum(means) / self.n_teams
        self.spread = sum([(m - self.grand) ** 2 for m in means])
        self.solo = sum([flag for _, flag, _ in self.terms])
        self.friends = sum([count for _, _, count in self.terms])

    def refresh(self, a: int, b: int, x: int, y: int) -> None:
        """Update the aggregates after ``x`` moved from team a to b and
        ``y`` from b to a (the terms already hold both teams' new ones)."""
        moved = self.female[y] - self.female[x]
        self.n_female[a] += moved
        self.n_female[b] -= moved
        in_a, in_b = self.friends_in[a], self.friends_in[b]
        for k in self.partners[x]:
            in_a[k] -= 1
            in_b[k] += 1
        for k in self.partners[y]:
            in_b[k] -= 1
            in_a[k] += 1
        self._total()

    def scan(
        self, a: int, b: int, i: int, j: int, limit: float
    ) -> tuple[int, int, float] | None:
        """The next swap of teams ``a`` and ``b`` that may score below
        ``limit``.

        Walks the candidates in search order from ``(i, j)`` on (the
        rest of row ``i``, then every later row from column 0), where
        candidate ``(i, j)`` swaps ``rosters[a][i]`` with
        ``rosters[b][j]``, and returns ``(i, j, estimate)`` for the
        first whose estimate less its :meth:`margin` is below
        ``limit``, or ``None`` when none in the block is.  The terms
        shared by the whole block are read once per call, so call it
        again after the aggregates change (:meth:`refresh`).
        """
        terms, grand, n_teams = self.terms, self.grand, self.n_teams
        ability, female, partners = self.ability, self.female, self.partners
        team_a, team_b = self.rosters[a], self.rosters[b]
        size_a, size_b = self.sizes[a], self.sizes[b]
        ea = terms[a][0] - grand
        eb = terms[b][0] - grand
        rest = self.spread - ea * ea - eb * eb
        solo = self.solo - terms[a][1] - terms[b][1]
        female_a, female_b = self.n_female[a], self.n_female[b]
        in_a, in_b = self.friends_in[a], self.friends_in[b]
        w_ability = self.criteria.ability_weight
        w_solo = self.criteria.solo_female_penalty
        scale = self.scale
        for i in range(i, len(team_a)):
            x = team_a[i]
            ability_x, female_x, partners_x = ability[x], female[x], partners[x]
            friends_x = self.friends - in_a[x] + in_b[x]
            for j in range(j, len(team_b)):
                y = team_b[j]
                d = ability[y] - ability_x
                da = d / size_a
                db = d / size_b
                shift = (da - db) / n_teams
                u = ea + da
                v = eb - db
                spread = rest + u * u + v * v - n_teams * shift * shift
                moved = female[y] - female_x
                friends = friends_x - in_b[y] + in_a[y] - (2 if y in partners_x else 0)
                estimate = (
                    w_ability * (spread / n_teams)
                    + w_solo * (solo + (female_a + moved == 1) + (female_b - moved == 1))
                    + 10.0 * friends
                )
                # estimate - self.margin(estimate), inlined.
                if estimate - 1e-9 * (abs(estimate) + scale) < limit:
                    return i, j, estimate
            j = 0
        return None

    def margin(self, estimate: float) -> float:
        """A bound on ``|estimate - exact|`` with orders of magnitude spare."""
        return 1e-9 * (abs(estimate) + self.scale)


def _improve(
    teams: list[list[Student]], criteria: FormationCriteria
) -> list[list[Student]]:
    """First-improvement local search over cross-team pairwise swaps.

    Teams are rosters of indices into ``students``, whose ability and
    gender are read once.  For each pair of teams,
    :meth:`_SwapFilter.scan` walks the candidate swaps in order and
    skips every one whose O(1) estimate, less its error margin, cannot
    beat ``best - 1e-12`` (the exact score cannot either); it returns
    the first that may, which takes the exact path, and the scan
    resumes at the next candidate with the aggregates and ``best`` as
    that evaluation left them.  On the exact path a swap changes only
    teams ``a`` and ``b``, so only their terms are recomputed (summing
    in member order, as :func:`_objective` does), the others stay
    cached, and the decision is taken on the exact score.  The filter
    only ever skips candidates the exact path would reject, so
    ``best``, every accept decision and the rosters are those of
    evaluating every candidate exactly.
    """
    students = [s for t in teams for s in t]
    ability = [s.ability_index for s in students]
    female = [1 if s.gender is Gender.FEMALE else 0 for s in students]
    ident = [s.student_id for s in students]
    index = iter(range(len(students)))
    rosters = [[next(index) for _ in t] for t in teams]

    def team_terms(roster: list[int]) -> tuple[float, int, int]:
        return _team_terms(
            [ability[k] for k in roster],
            sum([female[k] for k in roster]),
            {ident[k] for k in roster} if criteria.friend_pairs else set(),
            criteria,
        )

    terms = [team_terms(r) for r in rosters]
    best = _score(terms, criteria)
    swaps = _SwapFilter(rosters, terms, ability, female, ident, criteria)
    for _ in range(criteria.max_swap_rounds):
        improved = False
        for a in range(len(rosters)):
            team_a = rosters[a]
            for b in range(a + 1, len(rosters)):
                team_b = rosters[b]
                found = swaps.scan(a, b, 0, 0, best - 1e-12)
                while found is not None:
                    i, j, _ = found
                    team_a[i], team_b[j] = team_b[j], team_a[i]
                    kept = terms[a], terms[b]
                    terms[a], terms[b] = team_terms(team_a), team_terms(team_b)
                    candidate = _score(terms, criteria)
                    if candidate < best - 1e-12:
                        best = candidate
                        improved = True
                        swaps.refresh(a, b, team_b[j], team_a[i])
                    else:
                        team_a[i], team_b[j] = team_b[j], team_a[i]
                        terms[a], terms[b] = kept
                    found = swaps.scan(a, b, i, j + 1, best - 1e-12)
        if not improved:
            break
    return [[students[k] for k in roster] for roster in rosters]


def form_teams(
    students: Sequence[Student],
    n_teams: int,
    criteria: FormationCriteria | None = None,
    id_prefix: str = "T",
) -> list[Team]:
    """Form ``n_teams`` diverse, balanced teams from a section's students.

    Deterministic: same students and criteria always give the same teams.
    """
    if criteria is None:
        criteria = FormationCriteria()
    ids = [s.student_id for s in students]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate student ids in section")
    sizes = team_sizes(len(students), n_teams)
    teams = _improve(_snake_draft(students, sizes), criteria)
    width = max(2, len(str(n_teams)))
    return [
        Team(
            team_id=f"{id_prefix}{i + 1:0{width}d}",
            members=tuple(sorted(team, key=lambda s: s.student_id)),
        )
        for i, team in enumerate(teams)
    ]


def random_teams(
    students: Sequence[Student], n_teams: int, seed: int = 0, id_prefix: str = "R"
) -> list[Team]:
    """Uniformly random grouping — the baseline for the formation ablation."""
    import random as _random

    sizes = team_sizes(len(students), n_teams)
    pool = list(students)
    _random.Random(seed).shuffle(pool)
    teams: list[Team] = []
    start = 0
    width = max(2, len(str(n_teams)))
    for i, size in enumerate(sizes):
        members = tuple(sorted(pool[start : start + size], key=lambda s: s.student_id))
        teams.append(Team(team_id=f"{id_prefix}{i + 1:0{width}d}", members=members))
        start += size
    return teams


def balance_report(teams: Iterable[Team]) -> dict[str, float]:
    """Balance metrics for a set of teams (used by tests and the ablation).

    Returns the range and standard deviation of team mean ability, the
    number of teams with an isolated (exactly one) woman, and the range of
    team mean GPA.
    """
    teams = list(teams)
    if not teams:
        raise ValueError("balance report of zero teams")
    abilities = [t.mean_ability for t in teams]
    gpas = [t.mean_gpa for t in teams]
    mean_ab = sum(abilities) / len(abilities)
    var_ab = sum((a - mean_ab) ** 2 for a in abilities) / len(abilities)
    return {
        "ability_range": max(abilities) - min(abilities),
        "ability_sd": var_ab**0.5,
        "gpa_range": max(gpas) - min(gpas),
        "solo_female_teams": float(sum(1 for t in teams if t.n_female == 1)),
    }
