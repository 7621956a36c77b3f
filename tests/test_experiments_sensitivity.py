"""The generated experiment summary."""

import pytest

from repro.core import build_experiment_summary, render_markdown


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
