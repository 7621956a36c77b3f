"""Cohen's d: the paper's formula (the list-based oracle), bands, and
algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.effectsize import cohens_d_interpretation
from tests.test_analysis_oracle import cohens_d_paper

rng = np.random.default_rng(7)
A = list(rng.normal(4.02, 0.23, 124))
B = list(rng.normal(4.12, 0.17, 124))


class TestPaperFormula:
    def test_exact_paper_table2_arithmetic(self):
        """Table 2 computes d = (4.124365 - 4.023068) / 0.204474 = 0.50;
        verify our formula applied to samples with those exact moments."""
        sd_pooled = math.sqrt((0.232416**2 + 0.172052**2) / 2.0)
        assert sd_pooled == pytest.approx(0.204474, abs=1e-6)
        d = (4.124365 - 4.023068) / sd_pooled
        assert d == pytest.approx(0.50, abs=0.005)

    def test_positive_when_second_higher(self):
        assert cohens_d_paper(A, B).d > 0

    def test_uses_average_variance_pooling(self):
        result = cohens_d_paper(A, B)
        expected = math.sqrt((result.sd1**2 + result.sd2**2) / 2.0)
        assert result.sd_pooled == pytest.approx(expected, rel=1e-12)

    def test_zero_variance_raises(self):
        with pytest.raises(ValueError):
            cohens_d_paper([1.0, 1.0], [1.0, 1.0])

    @given(
        st.lists(st.floats(1, 5), min_size=5, max_size=30),
        st.floats(0.2, 2.0), st.floats(-3, 3),
    )
    @settings(max_examples=30)
    def test_scale_invariance(self, xs, scale, shift):
        ys = [x + 0.7 + 0.05 * (i % 4) for i, x in enumerate(xs)]
        base = cohens_d_paper(xs, ys).d
        transformed = cohens_d_paper(
            [scale * x + shift for x in xs], [scale * y + shift for y in ys]
        ).d
        assert transformed == pytest.approx(base, abs=1e-6)

    def test_antisymmetry(self):
        assert cohens_d_paper(A, B).d == pytest.approx(-cohens_d_paper(B, A).d, rel=1e-12)


class TestInterpretation:
    @pytest.mark.parametrize(
        "d,label",
        [(0.0, "trivial"), (0.1, "trivial"), (0.2, "small"), (0.35, "small"),
         (0.5, "medium"), (0.79, "medium"), (0.8, "large"), (2.0, "large"),
         (-0.9, "large"), (-0.3, "small")],
    )
    def test_bands(self, d, label):
        assert cohens_d_interpretation(d) == label

    def test_publication_precision_banding(self):
        # 0.4986 is *reported* as 0.50 and must read as medium (the paper's
        # own Table 2 case).
        assert cohens_d_interpretation(0.4986) == "medium"
        assert cohens_d_interpretation(0.794) == "medium"
        assert cohens_d_interpretation(0.796) == "large"

    def test_result_interpretation_property(self):
        result = cohens_d_paper(A, B)
        assert result.interpretation == cohens_d_interpretation(result.d)

    def test_str_contains_formula(self):
        assert "Cohen's d" in str(cohens_d_paper(A, B))
