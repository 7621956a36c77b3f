"""Latent-trait Likert response model.

Per student *i*, skill *k*, category *c* (emphasis/growth) and wave *w*,
the model posits a latent trait

    theta[i,k,c,w] = mu[k,c,w] + s * (alpha[c,w] * p[i,c,w]
                                       + sqrt(1 - alpha^2) * q[i,k,c,w])

where ``p`` is a student-level factor shared across skills (it creates the
between-student variance that the wave-level SDs in Tables 2–3 measure)
and ``q`` is a skill-specific residual.  The emphasis/growth pairs are
coupled two ways: the student factors ``(p_E, p_G)`` share a global copula
correlation ``rho_p``, and the residual pairs ``(q_E, q_G)`` share a
per-skill, per-wave correlation ``c_q[k,w]`` — the knob that calibration
uses to hit Table 4's Pearson values.

Each of the skill's items is then an independent noisy read of the trait,

    item = clip(round(theta + sigma_item * e), 1, 5)

which is exactly a Gaussian-copula discretisation with thresholds at the
half-integers, stored as an int8 Likert tensor.  The per-student skill,
composite and overall scores come from exact integer item sums
(:func:`derived_scores`); :mod:`repro.survey.scoring` computes the same
quantities from the typed response objects.

Waves are drawn independently (no cross-wave student correlation).  This
is a documented choice: the paper's reported t statistics are *not*
jointly consistent with its reported wave means/SDs under any
non-negative cross-wave correlation (see EXPERIMENTS.md), so we match the
means/SDs exactly and report the recomputed t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "SimulationTargets",
    "ModelKnobs",
    "ResponseModel",
    "CATEGORIES",
    "WAVES",
    "LIKERT_DTYPE",
    "DerivedScores",
    "derived_scores",
    "draw_response_blocks",
    "student_factors",
    "skill_residuals",
    "trait_offset",
    "items_from_trait",
]

CATEGORIES: tuple[str, str] = ("class_emphasis", "personal_growth")
WAVES: tuple[str, str] = ("first_half", "second_half")

#: Latent skill-trait scale (before the student/residual split).  Fixed by
#: design; calibration moves the other knobs around it.  The value trades
#: off two constraints: the skill-residual variance floor ``s^2 / 7`` must
#: sit below the smallest published wave SD (0.1721), while ``s^2`` must
#: dominate the per-skill item-noise variance so the largest published
#: Pearson r (0.73) stays reachable after discretisation attenuation.
LATENT_SCALE = 0.38

#: SD of the per-item read noise around the trait (small, for the same
#: attenuation reason; rounding to the Likert grid adds ~1/12 on its own).
ITEM_NOISE = 0.22

#: Element type of the item-score tensor: Likert items are 1..5.
LIKERT_DTYPE = np.dtype(np.int8)


@dataclass(frozen=True)
class SimulationTargets:
    """Published statistics the generator must reproduce.

    - ``skill_means[(skill, category, wave)]`` — Tables 5 and 6.
    - ``overall_sd[(category, wave)]`` — the SDs in Tables 2 and 3.
    - ``pearson_r[(skill, wave)]`` — Table 4 (emphasis↔growth).
    """

    skills: tuple[str, ...]
    n_students: int
    skill_means: Mapping[tuple[str, str, str], float]
    overall_sd: Mapping[tuple[str, str], float]
    pearson_r: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        for (skill, cat, wave), m in self.skill_means.items():
            if skill not in self.skills or cat not in CATEGORIES or wave not in WAVES:
                raise ValueError(f"bad skill-mean key {(skill, cat, wave)}")
            if not 1.0 <= m <= 5.0:
                raise ValueError(f"skill mean {m} outside Likert range")
        expected = {(s, c, w) for s in self.skills for c in CATEGORIES for w in WAVES}
        if set(self.skill_means) != expected:
            raise ValueError("skill_means must cover every (skill, category, wave)")
        if set(self.overall_sd) != {(c, w) for c in CATEGORIES for w in WAVES}:
            raise ValueError("overall_sd must cover every (category, wave)")
        if set(self.pearson_r) != {(s, w) for s in self.skills for w in WAVES}:
            raise ValueError("pearson_r must cover every (skill, wave)")


@dataclass
class ModelKnobs:
    """Free parameters the calibration adjusts.

    Arrays are indexed ``[skill, category, wave]`` / ``[category, wave]`` /
    ``[skill, wave]`` in the order of ``SimulationTargets.skills``,
    :data:`CATEGORIES` and :data:`WAVES`.
    """

    mu: np.ndarray          # (K, 2, 2) latent trait means
    alpha: np.ndarray       # (2, 2)    student-factor share, in [0, 1)
    c_q: np.ndarray         # (K, 2)    residual emphasis<->growth correlation
    rho_p: float = 0.90     # student-factor emphasis<->growth correlation

    def copy(self) -> "ModelKnobs":
        return ModelKnobs(
            mu=self.mu.copy(), alpha=self.alpha.copy(), c_q=self.c_q.copy(),
            rho_p=self.rho_p,
        )

    @classmethod
    def initial(cls, targets: SimulationTargets) -> "ModelKnobs":
        """Naive starting point: latent mean = target mean, mid-range shares."""
        k = len(targets.skills)
        mu = np.empty((k, 2, 2))
        for ki, skill in enumerate(targets.skills):
            for ci, cat in enumerate(CATEGORIES):
                for wi, wave in enumerate(WAVES):
                    mu[ki, ci, wi] = targets.skill_means[(skill, cat, wave)]
        alpha = np.full((2, 2), 0.4)
        c_q = np.empty((k, 2))
        for ki, skill in enumerate(targets.skills):
            for wi, wave in enumerate(WAVES):
                c_q[ki, wi] = min(0.95, targets.pearson_r[(skill, wave)] * 1.2)
        return cls(mu=mu, alpha=alpha, c_q=c_q)


class DerivedScores(NamedTuple):
    """Per-student scores derived from an item tensor (N, K, 2, 2, items)."""

    overall: np.ndarray     # (N, 2, 2): mean over skills and items
    composite: np.ndarray   # (N, K, 2, 2): (definition + mean(components)) / 2
    skill: np.ndarray       # (N, K, 2, 2): mean over items


def derived_scores(scores: np.ndarray) -> DerivedScores:
    """Skill, composite and overall scores from exact integer item sums.

    Item 0 of every skill is the definition item; ``rest`` adds the
    component items slice by slice in int64, so no item count can
    overflow an int8 tensor.  Integer sums are exact, so each score is
    one division of an exact sum — the same float a mean over the item
    axis gives.  Needs at least 2 items per skill: a composite without
    component items is undefined.
    """
    n_items = scores.shape[-1]
    if n_items < 2:
        raise ValueError(
            f"need at least 2 items per skill (a definition and a "
            f"component), got {n_items}"
        )
    k = scores.shape[1]
    definition = scores[..., 0]
    rest = scores[..., 1].astype(np.int64)
    for j in range(2, n_items):
        np.add(rest, scores[..., j], out=rest)
    total = definition + rest
    return DerivedScores(
        overall=total.sum(axis=1) / (k * n_items),
        composite=(definition + rest / (n_items - 1)) / 2.0,
        skill=total / n_items,
    )


@dataclass(frozen=True)
class RawScores:
    """Generated item scores: int8 array (N, K, 2 categories, 2 waves, items)."""

    skills: tuple[str, ...]
    items_per_skill: int
    scores: np.ndarray

    def skill_score(self) -> np.ndarray:
        """Per-student skill scores (N, K, 2, 2): mean over items."""
        return derived_scores(self.scores).skill

    def composite_score(self) -> np.ndarray:
        """Per-student Beyerlein composite scores (N, K, 2, 2).

        Item 0 of every skill is the definition item; the composite is
        ``(definition + mean(components)) / 2`` — the quantity Tables 5
        and 6 rank, and therefore the quantity calibration targets.
        """
        return derived_scores(self.scores).composite

    def overall(self) -> np.ndarray:
        """Per-student overall average (N, 2, 2): mean over skills & items."""
        return derived_scores(self.scores).overall


def draw_response_blocks(
    rng: np.random.Generator, n: int, k: int, items_per_skill: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The model's standard-normal building blocks ``(p_raw, q_raw, e)``.

    This is the model's *canonical draw order* — student factors, then
    skill residuals, then item noise.  :class:`ResponseModel` draws
    through it; the mega-cohort shard generator draws in the same order
    (its item noise in row blocks, which yield the same bits), so a
    single shard drawn from the same stream reproduces the monolithic
    model's draws bit for bit.
    """
    p_raw = rng.standard_normal((n, 2, 2, 2))
    q_raw = rng.standard_normal((n, k, 2, 2, 2))
    e = rng.standard_normal((n, k, 2, 2, items_per_skill))
    return p_raw, q_raw, e


def student_factors(p_raw: np.ndarray, rho_p: float) -> np.ndarray:
    """Correlated student factors (N, 2 categories, 2 waves)."""
    a = p_raw[:, 0]                  # (N, 2mix, W) base
    b = p_raw[:, 1]
    out = np.empty((p_raw.shape[0], 2, 2))
    out[:, 0, :] = a[:, 0, :]
    out[:, 1, :] = rho_p * a[:, 0, :] + np.sqrt(max(0.0, 1 - rho_p**2)) * b[:, 0, :]
    return out


def skill_residuals(q_raw: np.ndarray, c_q: np.ndarray) -> np.ndarray:
    """Correlated skill residuals (N, K, 2 categories, 2 waves)."""
    a = q_raw[:, :, 0]               # (N, K, mix, W)
    b = q_raw[:, :, 1]
    out = np.empty((q_raw.shape[0], q_raw.shape[1], 2, 2))
    out[:, :, 0, :] = a[:, :, 0, :]
    c = c_q[None, :, :]              # (1, K, W)
    out[:, :, 1, :] = c * a[:, :, 0, :] + np.sqrt(np.maximum(0.0, 1 - c**2)) * b[:, :, 0, :]
    return out


def trait_offset(
    knobs: ModelKnobs,
    p_raw: np.ndarray,
    q_raw: np.ndarray,
    latent_scale: float = LATENT_SCALE,
) -> np.ndarray:
    """The trait's deviation from ``mu`` (N, K, 2, 2): ``s * (alpha * p +
    sqrt(1 - alpha**2) * q)``.

    The half of the generation map that does not read ``mu``, so a step
    that moves only the means can reuse it (:class:`ResponseModel`
    does).
    """
    if np.any((knobs.alpha < 0) | (knobs.alpha >= 1)):
        raise ValueError("alpha must be in [0, 1)")
    if np.any(np.abs(knobs.c_q) > 1):
        raise ValueError("c_q must be in [-1, 1]")
    p = student_factors(p_raw, knobs.rho_p)         # (N, C, W)
    q = skill_residuals(q_raw, knobs.c_q)           # (N, K, C, W)
    alpha = knobs.alpha[None, None, :, :]           # (1, 1, C, W)
    return latent_scale * (
        alpha * p[:, None, :, :] + np.sqrt(1 - alpha**2) * q
    )


def items_from_trait(
    mu: np.ndarray,
    offset: np.ndarray,
    noise: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Likert items (N, K, 2, 2, items) from the trait means ``mu``
    (K, 2, 2), a :func:`trait_offset` and the scaled item noise.

    Adds the trait ``mu + offset`` to the noise into ``out`` (a new
    buffer when ``None``; pass ``out=noise`` to reuse the noise's),
    rounds and clips it there, and returns a compact
    :data:`LIKERT_DTYPE` tensor of values 1..5.  ``offset`` is only
    read.
    """
    if mu.shape != offset.shape[1:]:
        raise ValueError(f"mu has shape {mu.shape}, expected {offset.shape[1:]}")
    theta = mu[None, :, :, :] + offset              # (N, K, C, W)
    latent = np.add(theta[..., None], noise, out=out)
    np.rint(latent, out=latent)
    np.clip(latent, 1, 5, out=latent)
    return latent.astype(LIKERT_DTYPE)


class ResponseModel:
    """The generator.  Standard-normal draws are made once per instance so
    that regenerating with different knobs is a smooth deterministic map —
    which is what lets calibration use simple monotone root finding.

    The scaled item noise is kept instead of the raw draw, and the last
    :func:`trait_offset` is kept with the exact bytes of the ``rho_p``,
    ``alpha`` and ``c_q`` it came from, so a generation that moves only
    ``mu`` (most calibration steps) skips that half of the map.  Keying
    on the bytes, not on the knob objects, makes in-place changes to the
    knob arrays safe.
    """

    def __init__(
        self,
        skills: Sequence[str],
        n_students: int,
        items_per_skill: int = 5,
        seed: int = 2018,
        latent_scale: float = LATENT_SCALE,
        item_noise: float = ITEM_NOISE,
    ) -> None:
        if n_students < 2:
            raise ValueError("need at least 2 students")
        if items_per_skill < 2:
            raise ValueError(
                f"need at least 2 items per skill (a definition and a "
                f"component), got {items_per_skill}"
            )
        self.skills = tuple(skills)
        self.n_students = n_students
        self.items_per_skill = items_per_skill
        self._latent_scale = latent_scale
        self._item_noise = item_noise
        rng = np.random.default_rng(seed)
        # Independent standard-normal building blocks, drawn once, in the
        # canonical order shared with the mega-cohort shard generator.
        self._p_raw, self._q_raw, e = draw_response_blocks(
            rng, n_students, len(self.skills), items_per_skill
        )
        np.multiply(e, item_noise, out=e)
        self._noise = e
        self._offset_key: tuple | None = None
        self._offset: np.ndarray | None = None

    @property
    def latent_scale(self) -> float:
        """Latent trait scale ``s``, fixed at construction."""
        return self._latent_scale

    @property
    def item_noise(self) -> float:
        """Item read-noise SD, fixed at construction (the noise is kept
        scaled)."""
        return self._item_noise

    def _trait_offset(self, knobs: ModelKnobs) -> np.ndarray:
        """:func:`trait_offset` for these knobs, from the one-entry memo
        when ``rho_p``, ``alpha`` and ``c_q`` are unchanged."""
        key = tuple(
            (a.dtype.str, a.shape, a.tobytes())
            for a in map(np.asarray, (knobs.rho_p, knobs.alpha, knobs.c_q))
        )
        if key != self._offset_key:
            self._offset = trait_offset(
                knobs, self._p_raw, self._q_raw, self._latent_scale
            )
            self._offset_key = key
        return self._offset

    def generate(self, knobs: ModelKnobs) -> RawScores:
        """Generate the full raw item-score array for these knobs."""
        scores = items_from_trait(knobs.mu, self._trait_offset(knobs), self._noise)
        return RawScores(
            skills=self.skills, items_per_skill=self.items_per_skill, scores=scores
        )

    # --- observed statistics used by calibration -------------------------

    def observed(self, knobs: ModelKnobs) -> Mapping[str, np.ndarray]:
        """Observed statistics for the current knobs.

        Maps ``skill_mean`` (K, C, W), ``overall_sd`` (C, W) and
        ``pearson_r`` (K, W), each computed from one fresh generation
        with the fixed underlying draws on its first lookup, so a step
        that reads only the means pays for no SD and no Pearson.
        ``pearson_r`` is one batched pass of :func:`_pearson_pairs` over
        all K·W emphasis/growth pairs, equal bit for bit to
        ``np.corrcoef(e, g)[0, 1]`` per pair; calibration branches on
        these floats, so the calibration digests in
        ``tests/test_golden_digests.py`` pin them.
        """
        return _Observed(derived_scores(self.generate(knobs).scores))


class _Observed(Mapping[str, np.ndarray]):
    """The statistics of :meth:`ResponseModel.observed`, each computed on
    its first lookup; an unknown name raises :class:`KeyError`."""

    _NAMES = ("skill_mean", "overall_sd", "pearson_r")

    def __init__(self, derived: DerivedScores) -> None:
        self._derived = derived
        self._values: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._values[name]
        except KeyError:
            pass
        derived = self._derived
        if name == "skill_mean":
            # Mean targets are the published Tables 5/6 values, which
            # are cohort-mean *composite* scores.
            value = derived.composite.mean(axis=0)              # (K, C, W)
        elif name == "overall_sd":
            value = derived.overall.std(axis=0, ddof=1)         # (C, W)
        elif name == "pearson_r":
            skill = derived.skill                               # (N, K, C, W)
            n, k = skill.shape[:2]
            pairs = np.ascontiguousarray(skill.transpose(1, 3, 2, 0))  # (K, W, C, N)
            value = _pearson_pairs(pairs.reshape(k * 2, 2, n)).reshape(k, 2)
        else:
            raise KeyError(name)
        self._values[name] = value
        return value

    def __iter__(self):
        return iter(self._NAMES)

    def __len__(self) -> int:
        return len(self._NAMES)


def _pearson_pairs(x: np.ndarray) -> np.ndarray:
    """Pearson r of each row pair of a contiguous (B, 2, N) float stack.

    Returns ``r[b] == np.corrcoef(x[b, 0], x[b, 1])[0, 1]`` bit for bit,
    NaN where a row is constant, by taking ``np.corrcoef``'s own steps
    in its own order on the whole stack: the row means, centring,
    ``np.matmul`` of each matrix with its transpose (the syrk path
    ``np.dot`` takes), ``*= 1/(N-1)``, division by the standard
    deviations on rows and then on columns, and the clip to [-1, 1].
    Any other order or reduction moves the last bits, and calibration
    branches on them; change it only against the calibration digests.
    Centres ``x`` in place.
    """
    n = x.shape[-1]
    x -= x.mean(axis=-1)[..., None]
    c = np.matmul(x, x.transpose(0, 2, 1))          # (B, 2, 2)
    c *= np.true_divide(1, n - 1)
    stddev = np.sqrt(np.diagonal(c, axis1=1, axis2=2))
    c /= stddev[:, :, None]
    c /= stddev[:, None, :]
    np.clip(c, -1, 1, out=c)
    return c[:, 0, 1]
