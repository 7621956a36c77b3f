"""Bootstrap confidence intervals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.bootstrap import bootstrap_ci

rng = np.random.default_rng(9)
X = rng.normal(4.0, 0.25, 124)


class TestBootstrapCI:
    def test_estimate_is_plugin_statistic(self):
        ci = bootstrap_ci(X, np.mean, seed=1)
        assert ci.estimate == pytest.approx(float(np.mean(X)))

    def test_interval_brackets_estimate(self):
        ci = bootstrap_ci(X, np.mean, seed=1)
        assert ci.low <= ci.estimate <= ci.high

    def test_deterministic_for_seed(self):
        a = bootstrap_ci(X, np.mean, seed=7)
        b = bootstrap_ci(X, np.mean, seed=7)
        assert (a.low, a.high) == (b.low, b.high)
        c = bootstrap_ci(X, np.mean, seed=8)
        assert (a.low, a.high) != (c.low, c.high)

    def test_wider_at_higher_level(self):
        ci95 = bootstrap_ci(X, np.mean, level=0.95, seed=1)
        ci99 = bootstrap_ci(X, np.mean, level=0.99, seed=1)
        assert ci99.width > ci95.width

    def test_narrows_with_sample_size(self):
        small = bootstrap_ci(X[:20], np.mean, seed=1)
        large = bootstrap_ci(X, np.mean, seed=1)
        assert large.width < small.width

    def test_sd_statistic(self):
        ci = bootstrap_ci(X, lambda xs: float(np.std(xs, ddof=1)), seed=1)
        assert ci.contains(float(np.std(X, ddof=1)))

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci(X, np.mean, level=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci(X, np.mean, n_resamples=10)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], np.mean)

    @given(st.lists(st.floats(-10, 10), min_size=5, max_size=40))
    @settings(max_examples=15, deadline=None)
    def test_coverage_shape_property(self, xs):
        if len(set(xs)) < 2:
            return
        ci = bootstrap_ci(xs, np.mean, n_resamples=200, seed=0)
        assert ci.low <= ci.high
        assert min(xs) <= ci.low and ci.high <= max(xs)

    def test_str(self):
        ci = bootstrap_ci(X, np.mean, seed=1)
        assert "bootstrap" in str(ci)
