"""The response model's trait-offset memo and its lazy statistics.

``ResponseModel`` keeps the last :func:`trait_offset` keyed on the exact
bytes of ``rho_p``, ``alpha`` and ``c_q``, and ``observed`` computes each
statistic on its first lookup.  Neither may change a single bit of what
the pure generation map and the eager formulas give.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.targets import PAPER, simulation_targets
from repro.simulation import model as model_mod
from repro.simulation.model import (
    ITEM_NOISE,
    ModelKnobs,
    ResponseModel,
    _pearson_pairs,
    derived_scores,
    draw_response_blocks,
    items_from_trait,
)

TARGETS = simulation_targets(PAPER)
SEED = 2018


def scores_from_blocks(knobs, p_raw, q_raw, e):
    """The generation map over whole standard-normal blocks, one op at a
    time: ``trait_offset`` (looked up on the module, so a test can count
    its calls), then :func:`items_from_trait` over the noise scaled into
    a buffer of the items' shape.  The memoized model and the
    mega-cohort's row-blocked shards must equal it bit for bit.
    """
    offset = model_mod.trait_offset(knobs, p_raw, q_raw)
    noise = np.multiply(e, ITEM_NOISE)
    return items_from_trait(knobs.mu, offset, noise, out=noise)


def _fresh_scores(knobs):
    """The pure map over a fresh draw of the model's blocks."""
    rng = np.random.default_rng(SEED)
    blocks = draw_response_blocks(rng, TARGETS.n_students, len(TARGETS.skills), 5)
    return scores_from_blocks(knobs, *blocks)


def _offset_key(knobs):
    return (knobs.rho_p, knobs.alpha.tobytes(), knobs.c_q.tobytes())


def _walk(knobs, rng, visited):
    """One step of the walk; returns the step's kind."""
    kind = rng.choice(["mu", "mu_inplace", "alpha_inplace", "c_q_inplace",
                       "rho_p", "revisit", "same"])
    if kind == "mu":
        knobs.mu = knobs.mu + rng.normal(0.0, 0.2, knobs.mu.shape)
    elif kind == "mu_inplace":
        knobs.mu[tuple(rng.integers(0, s) for s in knobs.mu.shape)] += rng.normal(0.0, 0.3)
    elif kind == "alpha_inplace":
        knobs.alpha[tuple(rng.integers(0, 2, size=2))] = rng.uniform(0.0, 0.95)
    elif kind == "c_q_inplace":
        knobs.c_q[rng.integers(0, knobs.c_q.shape[0]), rng.integers(0, 2)] = (
            rng.uniform(-0.99, 0.99))
    elif kind == "rho_p":
        knobs.rho_p = float(rng.uniform(0.5, 0.99))
    elif kind == "revisit":
        old = visited[rng.integers(0, len(visited))]
        knobs.mu[...] = old.mu
        knobs.alpha[...] = old.alpha
        knobs.c_q[...] = old.c_q
        knobs.rho_p = old.rho_p
    return str(kind)


def test_memoized_generation_matches_the_pure_map_on_a_random_walk(monkeypatch):
    """Every state of a 240-step walk (in-place edits of ``alpha`` and
    ``c_q``, ``rho_p`` alone, ``mu`` alone, revisits) generates the same
    bits as :func:`scores_from_blocks` over a fresh draw, and the offset
    is recomputed exactly when ``rho_p``, ``alpha`` or ``c_q`` changed."""
    calls = []
    offset = model_mod.trait_offset

    def counting(*args, **kwargs):
        calls.append(1)
        return offset(*args, **kwargs)

    monkeypatch.setattr(model_mod, "trait_offset", counting)
    model = ResponseModel(TARGETS.skills, TARGETS.n_students, seed=SEED)
    rng = np.random.default_rng(7)
    knobs = ModelKnobs.initial(TARGETS)
    visited = [knobs.copy()]
    kinds = []
    changes = 0
    last = None
    for _ in range(240):
        kinds.append(_walk(knobs, rng, visited))
        key = _offset_key(knobs)
        changes += key != last
        last = key
        got = model.generate(knobs).scores
        want = _fresh_scores(knobs)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), kinds[-1]
        visited.append(knobs.copy())
    # Each fresh map computes its own offset; the model only on a change.
    assert len(calls) - 240 == changes < 240
    for kind in ("mu", "mu_inplace", "alpha_inplace", "c_q_inplace", "rho_p",
                 "revisit", "same"):
        assert kinds.count(kind) >= 10, kind


def _eager(model, knobs):
    """``observed``'s three statistics, computed up front."""
    derived = derived_scores(model.generate(knobs).scores)
    skill = derived.skill
    n, k = skill.shape[:2]
    pairs = np.ascontiguousarray(skill.transpose(1, 3, 2, 0))
    return {
        "skill_mean": derived.composite.mean(axis=0),
        "overall_sd": derived.overall.std(axis=0, ddof=1),
        "pearson_r": _pearson_pairs(pairs.reshape(k * 2, 2, n)).reshape(k, 2),
    }


@pytest.mark.parametrize("first", ["skill_mean", "overall_sd", "pearson_r"])
def test_lazy_statistics_equal_the_eager_formulas(calibrated_model, first):
    model, targets, result = calibrated_model
    for knobs in (ModelKnobs.initial(targets), result.knobs):
        want = _eager(model, knobs)
        obs = model.observed(knobs)
        assert len(obs) == 3 and set(obs) == set(want)
        for name in (first, *want):
            got = obs[name]
            assert got is obs[name]
            assert got.shape == want[name].shape
            assert got.tobytes() == want[name].tobytes(), name


def test_unknown_statistic_raises_key_error(calibrated_model):
    model, targets, _ = calibrated_model
    obs = model.observed(ModelKnobs.initial(targets))
    with pytest.raises(KeyError):
        obs["pearson"]
    assert obs.get("pearson") is None
    assert "pearson" not in obs
