"""The list-based paired t-test oracle vs scipy, plus semantics the
analysis pipeline relies on."""

import numpy as np
import pytest
import scipy.stats as scipy_stats
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_analysis_oracle import ttest_paired

rng = np.random.default_rng(42)
X = list(rng.normal(4.0, 0.3, 60))
Y = list(rng.normal(4.1, 0.25, 60))

sample_lists = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    min_size=3, max_size=40,
)


class TestPaired:
    def test_against_scipy(self):
        ours = ttest_paired(X, Y)
        ref = scipy_stats.ttest_rel(X, Y)
        assert ours.t == pytest.approx(ref.statistic, rel=1e-10)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-8)
        assert ours.df == len(X) - 1
        assert ours.n == len(X)

    def test_mean_difference_sign_convention(self):
        # Paper convention: first - second; improvement => negative.
        first = [1.0, 2.0, 3.0]
        second = [2.0, 3.0, 4.5]
        assert ttest_paired(first, second).mean_difference < 0

    def test_antisymmetry(self):
        a = ttest_paired(X, Y)
        b = ttest_paired(Y, X)
        assert a.t == pytest.approx(-b.t, rel=1e-12)
        assert a.p_value == pytest.approx(b.p_value, rel=1e-12)

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            ttest_paired([1.0, 2.0], [1.0])

    def test_identical_samples_raise(self):
        with pytest.raises(ValueError):
            ttest_paired([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_one_sided_alternatives(self):
        less = ttest_paired(X, Y, alternative="less")
        greater = ttest_paired(X, Y, alternative="greater")
        assert less.p_value + greater.p_value == pytest.approx(1.0, abs=1e-12)

    @given(sample_lists, st.floats(0.1, 5.0))
    @settings(max_examples=30)
    def test_shift_gives_significant_negative_diff(self, xs, shift):
        # Add per-pair noise so differences are not all equal.
        ys = [x + shift + 0.01 * ((i % 3) - 1) for i, x in enumerate(xs)]
        result = ttest_paired(xs, ys)
        assert result.mean_difference < 0
