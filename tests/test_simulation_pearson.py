"""The batched Pearson pass behind ``ResponseModel.observed``.

``_pearson_pairs`` must equal ``np.corrcoef(e, g)[0, 1]`` per pair bit
for bit: calibration branches on those floats.  The per-pair loop below
is the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import ResponseModel, calibrate
from repro.simulation.model import ModelKnobs, _pearson_pairs, derived_scores


def _reference_pearson_pairs(x):
    """``np.corrcoef`` of each row pair of a (B, 2, N) stack, one at a time."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.array([np.corrcoef(pair[0], pair[1])[0, 1] for pair in x])


def _assert_bit_identical(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got, want, equal_nan=True)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _stack(seed, n, k, likert, n_constant):
    """A (2K, 2, N) stack: Likert-grid item means or continuous values,
    with ``n_constant`` rows held at an integer so their variance is 0."""
    rng = np.random.default_rng(seed)
    if likert:
        x = rng.integers(5, 26, size=(2 * k, 2, n)) / 5.0
    else:
        x = rng.normal(3.0, 0.6, size=(2 * k, 2, n))
    rows = rng.choice(2 * k * 2, size=min(n_constant, 2 * k * 2), replace=False)
    for row in rows:
        x[row // 2, row % 2, :] = float(rng.integers(1, 6))
    return x, sorted({int(row) // 2 for row in rows})


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 124, 300]),
    k=st.sampled_from([1, 7]),
    likert=st.booleans(),
    n_constant=st.integers(0, 3),
)
def test_pearson_pairs_matches_corrcoef_bit_for_bit(seed, n, k, likert, n_constant):
    x, constant = _stack(seed, n, k, likert, n_constant)
    want = _reference_pearson_pairs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _pearson_pairs(x.copy())
    _assert_bit_identical(got, want)
    assert np.isnan(got[constant]).all()


def test_observed_pearson_matches_per_pair_corrcoef(calibrated_model):
    model, targets, result = calibrated_model
    for knobs in (ModelKnobs.initial(targets), result.knobs):
        skill = derived_scores(model.generate(knobs).scores).skill
        k = skill.shape[1]
        want = _reference_pearson_pairs(
            [(skill[:, ki, 0, wi], skill[:, ki, 1, wi])
             for ki in range(k) for wi in range(2)]
        ).reshape(k, 2)
        _assert_bit_identical(model.observed(knobs)["pearson_r"], want)


def test_calibration_reuses_statistics_it_already_has(calibrated_model, monkeypatch):
    """A round's first step reuses the previous round's final check, so
    seed 2018 (10 rounds, 8 inner mean steps each) costs 101 ``observed``
    calls instead of 110, with the same result."""
    model, targets, result = calibrated_model
    calls = []
    observed = ResponseModel.observed

    def counting(self, knobs):
        calls.append(1)
        return observed(self, knobs)

    monkeypatch.setattr(ResponseModel, "observed", counting)
    again = calibrate(ResponseModel(targets.skills, targets.n_students,
                                    seed=2018), targets)
    assert len(calls) == 101
    assert again.rounds == result.rounds == 10
    for name in ("mu", "alpha", "c_q"):
        assert (getattr(again.knobs, name).tobytes()
                == getattr(result.knobs, name).tobytes())
    assert again.knobs.rho_p == result.knobs.rho_p
    assert ((again.max_mean_error, again.max_sd_error, again.max_r_error)
            == (result.max_mean_error, result.max_sd_error, result.max_r_error))
    assert again.converged


@pytest.mark.parametrize("n", [2, 3, 124, 300])
def test_pearson_pairs_clips_like_corrcoef(n):
    """Exactly (anti-)correlated pairs, where rounding can leave |r| > 1
    before the clip."""
    rng = np.random.default_rng(n)
    base = rng.normal(3.0, 0.6, size=n)
    x = np.stack([base, base, base, -base, base, 3.0 * base + 0.1,
                  base, 0.1 * base], axis=0).reshape(4, 2, n)
    want = _reference_pearson_pairs(x)
    got = _pearson_pairs(x.copy())
    _assert_bit_identical(got, want)
    assert np.all(np.abs(got) <= 1.0)
