"""Streaming moments: merge correctness, permutation stability, and the
``*_from_stats`` entry points matching the list-based oracle bit for bit
and scipy to tolerance."""

import math

import numpy as np
import pytest
import scipy.stats as scipy_stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    cohens_d_from_stats,
    pearson_r_from_stats,
    ttest_paired_from_stats,
)
from repro.stats.descriptive import mean
from repro.stats.streaming import CoMoments, Moments, merge_indexed
from tests.test_analysis_oracle import cohens_d_paper, pearson, ttest_paired, variance

# Finite, moderate floats: the accumulators are used on Likert-derived
# values in [1, 5]; a wide-but-bounded range exercises the numerics
# without manufacturing catastrophic cancellation the pipeline never sees.
_values = st.floats(min_value=-1e6, max_value=1e6,
                    allow_nan=False, allow_infinity=False, width=64)


def _split(data, n_chunks):
    """Deterministic uneven split of a 1-d array into n_chunks pieces."""
    bounds = np.linspace(0, len(data), n_chunks + 1).astype(int)
    return [data[bounds[i]:bounds[i + 1]] for i in range(n_chunks)]


def _ulp_tol(reference, scale, factor=64.0):
    """Tolerance of ``factor`` ulps at the magnitude of ``scale``."""
    return factor * np.spacing(np.maximum(np.abs(reference), scale))


class TestMomentsMerge:
    @given(st.lists(_values, min_size=2, max_size=200),
           st.integers(min_value=1, max_value=7))
    @settings(max_examples=100, deadline=None)
    def test_merged_moments_match_two_pass_numpy(self, xs, n_chunks):
        data = np.asarray(xs)
        merged = None
        for chunk in _split(data, n_chunks):
            part = Moments.from_batch(chunk)
            merged = part if merged is None else merged.merge(part)
        assert merged.count == len(data)
        direct_mean = data.mean()
        direct_m2 = float(np.square(data - direct_mean).sum())
        scale = float(np.abs(data).max()) or 1.0
        assert abs(float(merged.mean) - direct_mean) <= _ulp_tol(
            direct_mean, scale)
        # m2 magnitudes grow like n * scale^2.
        assert abs(float(merged.m2) - direct_m2) <= _ulp_tol(
            direct_m2, len(data) * scale * scale)

    @given(st.lists(_values, min_size=1, max_size=120),
           st.integers(min_value=1, max_value=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_merge_indexed_is_exactly_permutation_stable(self, xs, n_chunks,
                                                         rng):
        data = np.asarray(xs)
        indexed = [(i, Moments.from_batch(chunk))
                   for i, chunk in enumerate(_split(data, n_chunks))]
        reference = merge_indexed(indexed)
        shuffled = list(indexed)
        rng.shuffle(shuffled)
        permuted = merge_indexed(shuffled)
        assert permuted.count == reference.count
        # Bit-for-bit, not approximately: canonical-order folding makes
        # the merged statistics independent of completion order.
        assert np.array_equal(permuted.mean, reference.mean)
        assert np.array_equal(permuted.m2, reference.m2)

    @given(st.lists(_values, min_size=2, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_push_agrees_with_from_batch(self, xs):
        data = np.asarray(xs)
        streamed = Moments.empty(())
        for x in data:
            streamed = streamed.push(x)
        batch = Moments.from_batch(data)
        scale = float(np.abs(data).max()) or 1.0
        assert streamed.count == batch.count
        assert abs(float(streamed.mean) - float(batch.mean)) <= _ulp_tol(
            float(batch.mean), scale)
        assert abs(float(streamed.m2) - float(batch.m2)) <= _ulp_tol(
            float(batch.m2), len(data) * scale * scale)

    def test_merge_indexed_rejects_duplicates_and_empty(self):
        part = Moments.from_batch(np.arange(4.0))
        with pytest.raises(ValueError):
            merge_indexed([(0, part), (0, part)])
        with pytest.raises(ValueError):
            merge_indexed([])


class TestCoMomentsMerge:
    @given(st.lists(st.tuples(_values, _values), min_size=3, max_size=150),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=80, deadline=None)
    def test_merged_comoments_match_two_pass_numpy(self, pairs, n_chunks):
        xs = np.asarray([p[0] for p in pairs])
        ys = np.asarray([p[1] for p in pairs])
        bounds = np.linspace(0, len(xs), n_chunks + 1).astype(int)
        merged = None
        for i in range(n_chunks):
            part = CoMoments.from_batch(xs[bounds[i]:bounds[i + 1]],
                                        ys[bounds[i]:bounds[i + 1]])
            merged = part if merged is None else merged.merge(part)
        assert merged.count == len(xs)
        dx = xs - xs.mean()
        dy = ys - ys.mean()
        direct_cxy = float((dx * dy).sum())
        scale = float(max(np.abs(xs).max(), np.abs(ys).max(), 1.0))
        tol = _ulp_tol(direct_cxy, len(xs) * scale * scale)
        assert abs(float(merged.cxy) - direct_cxy) <= tol


class TestFromStatsMatchArrayVersions:
    """Feeding ``*_from_stats`` the statistics the array versions compute
    internally must reproduce their results exactly — the property that
    makes the streamed N=124 tables byte-identical to the in-memory ones."""

    @given(st.lists(st.tuples(_values, _values), min_size=2, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_ttest_paired_from_stats(self, pairs):
        first = [p[0] for p in pairs]
        second = [p[1] for p in pairs]
        diffs = [a - b for a, b in zip(first, second)]
        try:
            expected = ttest_paired(first, second)
        except ValueError:
            return  # zero-variance differences: both paths reject
        got = ttest_paired_from_stats(len(diffs), mean(diffs),
                                      variance(diffs))
        assert got.t == expected.t
        assert got.p_value == expected.p_value
        assert got.df == expected.df
        assert got.mean_difference == expected.mean_difference

    @given(st.lists(st.tuples(_values, _values), min_size=2, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_cohens_d_from_stats(self, pairs):
        first = [p[0] for p in pairs]
        second = [p[1] for p in pairs]
        try:
            expected = cohens_d_paper(first, second)
        except ValueError:
            return  # two zero-variance waves: both paths reject
        got = cohens_d_from_stats(len(first), mean(first), variance(first),
                                  len(second), mean(second), variance(second))
        assert got.d == expected.d
        assert got.sd_pooled == expected.sd_pooled
        assert got.sd1 == expected.sd1 and got.sd2 == expected.sd2

    @given(st.lists(st.tuples(_values, _values), min_size=3, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_pearson_r_from_stats(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        try:
            expected = pearson(xs, ys)
        except ValueError:
            return  # constant sequence: both paths reject
        mx, my = mean(xs), mean(ys)
        sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
        sxx = math.fsum((x - mx) ** 2 for x in xs)
        syy = math.fsum((y - my) ** 2 for y in ys)
        got = pearson_r_from_stats(len(xs), sxx, syy, sxy)
        assert got.r == expected.r
        assert got.p_value == expected.p_value
        assert got.n == expected.n


# Likert-derived scores: means of 1..5 item scores, the values the
# product feeds these entry points.
_scores = st.lists(st.integers(min_value=1, max_value=5), min_size=2,
                   max_size=10).map(lambda items: sum(items) / len(items))


class TestFromStatsAgainstScipy:
    """The product path, fed through ``Moments``/``CoMoments.from_batch``
    as the analysis feeds it, against scipy and numpy directly."""

    @given(st.lists(st.tuples(_scores, _scores), min_size=2, max_size=150))
    @settings(max_examples=80, deadline=None)
    def test_ttest_paired_from_stats_matches_ttest_rel(self, pairs):
        first = np.asarray([p[0] for p in pairs])
        second = np.asarray([p[1] for p in pairs])
        diff = Moments.from_batch(first - second)
        if float(diff.variance()) <= 1e-12:
            return  # all differences equal: no t statistic to compare
        got = ttest_paired_from_stats(diff.count, float(diff.mean),
                                      float(diff.variance()))
        ref = scipy_stats.ttest_rel(first, second)
        assert got.t == pytest.approx(ref.statistic, rel=1e-9, abs=1e-9)
        assert got.p_value == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)
        assert got.df == len(pairs) - 1
        assert got.mean_difference == pytest.approx(
            float(np.mean(first - second)), rel=1e-12, abs=1e-12)

    @given(st.lists(st.tuples(_scores, _scores), min_size=3, max_size=150))
    @settings(max_examples=80, deadline=None)
    def test_pearson_r_from_stats_matches_pearsonr(self, pairs):
        xs = np.asarray([p[0] for p in pairs])
        ys = np.asarray([p[1] for p in pairs])
        if np.ptp(xs) == 0.0 or np.ptp(ys) == 0.0:
            return  # constant sequence: no correlation to compare
        co = CoMoments.from_batch(xs, ys)
        got = pearson_r_from_stats(co.count, float(co.m2x), float(co.m2y),
                                   float(co.cxy))
        ref = scipy_stats.pearsonr(xs, ys)
        assert got.r == pytest.approx(ref.statistic, rel=1e-9, abs=1e-12)
        if 1.0 - abs(ref.statistic) < 1e-9:
            # |r| within rounding of 1: p rests on the cancellation in
            # 1 - r^2, so both sides only agree that it is negligible.
            assert got.p_value < 1e-6 and ref.pvalue < 1e-6
        else:
            assert got.p_value == pytest.approx(ref.pvalue, rel=1e-6, abs=1e-12)

    @given(st.lists(_scores, min_size=2, max_size=150),
           st.lists(_scores, min_size=2, max_size=150))
    @settings(max_examples=80, deadline=None)
    def test_cohens_d_from_stats_matches_the_paper_formula(self, first, second):
        a, b = np.asarray(first), np.asarray(second)
        s1, s2 = np.std(a, ddof=1), np.std(b, ddof=1)
        if s1 == 0.0 and s2 == 0.0:
            return  # two zero-variance waves: d is undefined
        m1, m2 = Moments.from_batch(a), Moments.from_batch(b)
        got = cohens_d_from_stats(m1.count, float(m1.mean), float(m1.variance()),
                                  m2.count, float(m2.mean), float(m2.variance()))
        expected = (np.mean(b) - np.mean(a)) / np.sqrt((s1 ** 2 + s2 ** 2) / 2)
        assert got.d == pytest.approx(expected, rel=1e-9, abs=1e-9)
