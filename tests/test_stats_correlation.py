"""The list-based Pearson oracle vs scipy, Guilford bands, ranking,
composite score."""

import numpy as np
import pytest
import scipy.stats as scipy_stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.guilford import GUILFORD_BANDS, guilford_band
from repro.stats.ranking import (
    emphasis_growth_gaps,
    rank_by_score,
    rank_table,
    spread,
)
from tests.test_analysis_oracle import composite_score, pearson

rng = np.random.default_rng(3)
X = list(rng.normal(4.0, 0.4, 124))
Y = list(0.6 * np.array(X) + rng.normal(1.6, 0.3, 124))


class TestPearson:
    def test_against_scipy(self):
        ours = pearson(X, Y)
        r_ref, p_ref = scipy_stats.pearsonr(X, Y)
        assert ours.r == pytest.approx(r_ref, rel=1e-12)
        assert ours.p_value == pytest.approx(p_ref, rel=1e-8)
        assert ours.n == 124

    def test_perfect_correlation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        result = pearson(xs, [2 * x for x in xs])
        assert result.r == pytest.approx(1.0)
        assert result.p_value == 0.0

    def test_perfect_anticorrelation(self):
        xs = [1.0, 2.0, 3.0]
        assert pearson(xs, [-x for x in xs]).r == pytest.approx(-1.0)

    def test_constant_raises(self):
        with pytest.raises(ValueError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_needs_three_pairs(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [2.0, 1.0])

    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                    min_size=4, max_size=40))
    @settings(max_examples=40)
    def test_r_bounded(self, pairs):
        xs = [a for a, _ in pairs]
        ys = [b for _, b in pairs]
        try:
            r = pearson(xs, ys).r
        except ValueError:
            # Constant sequence — including values so small their squared
            # deviations underflow to zero.  Raising is the contract.
            return
        assert -1.0 <= r <= 1.0

    def test_symmetry_in_arguments(self):
        assert pearson(X, Y).r == pytest.approx(pearson(Y, X).r, rel=1e-12)

    def test_p_report_convention(self):
        strong = pearson(X, Y)
        assert strong.p_report() == "p < 0.001"
        weak = pearson([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 3.0, 2.5, 3.5])
        assert weak.p_report().startswith("p = ")


class TestGuilford:
    @pytest.mark.parametrize(
        "r,label",
        [(0.1, "slight"), (0.38, "low"), (0.47, "moderate"), (0.66, "moderate"),
         (0.73, "high"), (0.95, "very high"), (-0.73, "high"), (0.0, "slight"),
         (1.0, "very high")],
    )
    def test_paper_cases(self, r, label):
        assert guilford_band(r).label == label

    def test_bands_partition_unit_interval(self):
        for i, band in enumerate(GUILFORD_BANDS[:-1]):
            assert band.high == GUILFORD_BANDS[i + 1].low

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            guilford_band(1.5)


class TestCompositeAndRanking:
    def test_composite_formula(self):
        assert composite_score(4.0, [3.0, 5.0]) == 4.0
        assert composite_score(5.0, [3.0]) == 4.0

    def test_composite_requires_components(self):
        with pytest.raises(ValueError):
            composite_score(4.0, [])

    def test_rank_by_score_descending(self):
        ranking = rank_by_score({"a": 3.0, "b": 4.5, "c": 4.0})
        assert [item.name for item in ranking] == ["b", "c", "a"]
        assert [item.rank for item in ranking] == [1, 2, 3]

    def test_rank_ties_alphabetical(self):
        ranking = rank_by_score({"z": 4.0, "a": 4.0})
        assert [item.name for item in ranking] == ["a", "z"]

    def test_rank_table_pairs_waves(self):
        table = rank_table({"a": 1.0, "b": 2.0}, {"a": 2.0, "b": 1.0})
        assert table[0][0].name == "b" and table[0][1].name == "a"

    def test_rank_table_requires_same_elements(self):
        with pytest.raises(ValueError):
            rank_table({"a": 1.0}, {"b": 1.0})

    def test_spread(self):
        assert spread({"a": 4.14, "b": 3.36}) == pytest.approx(0.78)

    def test_gaps_threshold(self):
        gaps = emphasis_growth_gaps({"x": 4.25, "y": 4.0}, {"x": 4.22, "y": 3.7})
        assert gaps["x"] == (pytest.approx(0.03), False)
        assert gaps["y"][1] is True  # 0.3 > 0.2 -> redesign flag
