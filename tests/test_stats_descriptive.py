"""Descriptive statistics (and the oracle's variance) vs numpy and
algebraic properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.descriptive import mean, median
from tests.test_analysis_oracle import stdev, variance

finite_lists = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=50,
)


class TestMoments:
    def test_mean_simple(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_variance_matches_numpy(self):
        xs = [2.5, 3.7, 1.2, 8.8, 4.4]
        assert variance(xs) == pytest.approx(np.var(xs, ddof=1), rel=1e-12)
        assert variance(xs, ddof=0) == pytest.approx(np.var(xs), rel=1e-12)

    def test_variance_needs_enough_points(self):
        with pytest.raises(ValueError):
            variance([1.0])

    def test_stdev_of_constant_is_zero(self):
        assert stdev([4.0, 4.0, 4.0]) == 0.0

    @given(finite_lists)
    def test_variance_nonnegative(self, xs):
        assert variance(xs) >= 0.0

    @given(finite_lists, st.floats(-100, 100), st.floats(0.1, 10))
    def test_mean_affine_equivariance(self, xs, shift, scale):
        transformed = [scale * x + shift for x in xs]
        assert mean(transformed) == pytest.approx(scale * mean(xs) + shift, abs=1e-6)

    @given(finite_lists, st.floats(-100, 100))
    def test_variance_shift_invariance(self, xs, shift):
        shifted = [x + shift for x in xs]
        assert variance(shifted) == pytest.approx(
            variance(xs), rel=1e-6, abs=1e-4
        )


class TestOrderStatistics:
    def test_median_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_median_even(self):
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    @given(finite_lists)
    def test_median_between_min_and_max(self, xs):
        assert min(xs) <= median(xs) <= max(xs)
