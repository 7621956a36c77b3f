"""The generated experiment summary and the cohort-size sensitivity sweep."""

import pytest

from repro.core import build_experiment_summary, render_markdown
from repro.simulation import sensitivity_sweep, subsample_analysis
from repro.stats import paired_t_power


class TestExperimentSummary:
    def test_all_rows_within_tolerance(self, study_result):
        summary = build_experiment_summary(study_result)
        bad = [row for row in summary.rows if not row.within_tolerance]
        assert bad == [], bad
        assert summary.all_within_tolerance

    def test_row_counts(self, study_result):
        summary = build_experiment_summary(study_result)
        # 2 (table1) + 2x5 (tables 2-3) + 14 (table4) + 2x14 (tables 5-6)
        assert len(summary.rows) == 2 + 10 + 14 + 28
        assert len(summary.rows_for("table4")) == 14
        assert len(summary.rows_for("table5")) == 14

    def test_fidelity_counts_carried(self, study_result):
        summary = build_experiment_summary(study_result)
        assert summary.checks_passed == summary.checks_total == 19

    def test_deltas_are_signed(self, study_result):
        summary = build_experiment_summary(study_result)
        row = summary.rows[0]
        assert row.delta == pytest.approx(row.our_value - row.paper_value)

    def test_markdown_rendering(self, study_result):
        summary = build_experiment_summary(study_result)
        markdown = render_markdown(summary)
        assert "# Experiment summary" in markdown
        assert "## table4" in markdown
        assert "19/19" in markdown
        assert "| NO |" not in markdown   # nothing out of tolerance
        # one markdown row per comparison
        assert markdown.count("| yes |") == len(summary.rows)


class TestSensitivity:
    def test_subsample_preserves_pipeline(self, study_result):
        analysis = subsample_analysis(
            study_result.waves["first_half"],
            study_result.waves["second_half"],
            n=60, seed=1,
        )
        assert analysis.n == 60
        assert len(analysis.pearson) == 14

    def test_full_subsample_equals_full_analysis(self, study_result):
        analysis = subsample_analysis(
            study_result.waves["first_half"],
            study_result.waves["second_half"],
            n=124, seed=1,
        )
        assert analysis.ttest_growth.t == study_result.analysis.ttest_growth.t

    def test_bounds_validated(self, study_result):
        with pytest.raises(ValueError):
            subsample_analysis(
                study_result.waves["first_half"],
                study_result.waves["second_half"], n=1,
            )
        with pytest.raises(ValueError):
            subsample_analysis(
                study_result.waves["first_half"],
                study_result.waves["second_half"], n=500,
            )

    def test_detection_improves_with_n(self, study_result):
        points = sensitivity_sweep(
            study_result.waves["first_half"],
            study_result.waves["second_half"],
            sizes=(16, 124), n_replicates=8, seed=3,
        )
        small, full = points
        # The growth effect (d ~ 0.85) is detectable even in small
        # subsamples; the emphasis effect (d ~ 0.5) needs the full cohort.
        assert full.emphasis_detection_rate >= small.emphasis_detection_rate
        assert full.emphasis_detection_rate == 1.0
        assert full.growth_detection_rate == 1.0

    def test_tracks_analytic_power(self, study_result):
        """Empirical detection at n=32 should be in the same regime as
        the analytic power for the underlying d_z."""
        points = sensitivity_sweep(
            study_result.waves["first_half"],
            study_result.waves["second_half"],
            sizes=(32,), n_replicates=12, seed=5,
        )
        d_z = abs(study_result.analysis.ttest_growth.t) / (124 ** 0.5)
        analytic = paired_t_power(d_z, 32).power
        empirical = points[0].growth_detection_rate
        assert abs(empirical - analytic) < 0.35  # coarse agreement

    def test_effect_size_estimates_unbiasedish(self, study_result):
        points = sensitivity_sweep(
            study_result.waves["first_half"],
            study_result.waves["second_half"],
            sizes=(64,), n_replicates=10, seed=7,
        )
        assert points[0].mean_d_growth == pytest.approx(
            study_result.analysis.cohens_d_growth.d, abs=0.25
        )

    def test_replicates_validated(self, study_result):
        with pytest.raises(ValueError):
            sensitivity_sweep(
                study_result.waves["first_half"],
                study_result.waves["second_half"],
                n_replicates=0,
            )

    def test_cohort_below_three_rejected_up_front(self, study_result):
        first = study_result.waves["first_half"]
        second = study_result.waves["second_half"]
        with pytest.raises(ValueError, match="at least 3 students"):
            subsample_analysis(first, second, n=2)
        with pytest.raises(ValueError, match=r"at least 3 .*\[2\]"):
            sensitivity_sweep(first, second, sizes=(124, 2), n_replicates=1)
