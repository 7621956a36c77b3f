"""Cronbach's alpha against the covariance formula and its bands."""

import numpy as np
import pytest

from repro.stats.reliability import alpha_interpretation, cronbach_alpha

rng = np.random.default_rng(12)


class TestCronbach:
    def test_known_value(self):
        """Hand-checkable 3-item example."""
        items = [[1.0, 2, 3, 4, 5], [1.0, 2, 3, 4, 5], [1.0, 2, 3, 4, 5]]
        # Perfectly parallel items: alpha = 1.
        assert cronbach_alpha(items).alpha == pytest.approx(1.0)

    def test_uncorrelated_items_low_alpha(self):
        items = [list(rng.normal(0, 1, 200)) for _ in range(4)]
        assert cronbach_alpha(items).alpha < 0.3

    def test_common_factor_raises_alpha(self):
        factor = rng.normal(0, 1, 200)
        items = [list(factor + rng.normal(0, 0.5, 200)) for _ in range(5)]
        result = cronbach_alpha(items)
        assert result.alpha > 0.8
        assert result.interpretation in ("good", "excellent")

    def test_matches_covariance_formula(self):
        items = [list(rng.normal(0, 1, 50) + rng.normal(0, 1, 50)) for _ in range(3)]
        data = np.array(items)
        k = 3
        total_var = np.var(data.sum(axis=0), ddof=1)
        item_vars = np.var(data, axis=1, ddof=1).sum()
        expected = k / (k - 1) * (1 - item_vars / total_var)
        assert cronbach_alpha(items).alpha == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("alpha,label", [
        (0.95, "excellent"), (0.85, "good"), (0.75, "acceptable"),
        (0.65, "questionable"), (0.55, "poor"), (0.3, "unacceptable"),
    ])
    def test_interpretation_bands(self, alpha, label):
        assert alpha_interpretation(alpha) == label

    def test_validation(self):
        with pytest.raises(ValueError):
            cronbach_alpha([[1.0, 2.0]])
        with pytest.raises(ValueError):
            cronbach_alpha([[1.0], [2.0]])
        with pytest.raises(ValueError):
            cronbach_alpha([[1.0, 2.0], [1.0]])
        with pytest.raises(ValueError):
            cronbach_alpha([[1.0, 1.0], [2.0, 2.0]])  # constant total
