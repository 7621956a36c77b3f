"""Core: analysis, hypotheses, targets, report, and the full study."""

import pytest

from repro.core import PBLStudy, ReproductionReport, analyze_waves, evaluate_hypotheses
from repro.core.targets import EMPHASIS, GROWTH, PAPER, W1, W2
from repro.reporting import Table, render_fig1_timeline, render_fig2_instrument
from repro.survey.instrument import ELEMENT_NAMES


class TestTargets:
    def test_table1_values(self):
        assert PAPER.table1[EMPHASIS].t == -2.63
        assert PAPER.table1[GROWTH].p_value == 0.002
        assert PAPER.n_students == 124

    def test_table4_has_14_cells(self):
        assert len(PAPER.table4_r) == 14
        assert PAPER.table4_r[("Evaluation and Decision Making", W1)] == 0.73
        assert PAPER.table4_r[("Teamwork", W1)] == 0.38

    def test_tables_5_and_6_cover_all_elements(self):
        for table in (PAPER.table5_emphasis, PAPER.table6_growth):
            assert {s for s, _w in table} == set(ELEMENT_NAMES)

    def test_paper_internal_consistency_of_overall_means(self):
        import statistics
        w1 = statistics.mean(
            v for (s, w), v in PAPER.table5_emphasis.items() if w == W1
        )
        assert w1 == pytest.approx(PAPER.table2.mean1, abs=0.01)


class TestStudyRun:
    def test_cohort_shape(self, study_result):
        assert study_result.n_students == 124
        assert len(study_result.teams) == 26
        sizes = sorted(t.size for t in study_result.teams)
        assert set(sizes) <= {4, 5}

    def test_calibration_converged(self, study_result):
        assert study_result.calibration.converged

    def test_waves_complete(self, study_result):
        for wave in study_result.waves.values():
            assert wave.n == 124
            wave.validate()

    def test_assignment_programs_executed(self, study_result):
        assert set(study_result.program_outputs) == {1, 2, 3, 4, 5}
        assert study_result.program_outputs[2]["fork_join"].num_threads == 4

    def test_team_artifacts_created(self, study_result):
        assert len(study_result.artifacts) == 26
        artifact = study_result.artifacts[0]
        assert artifact.workspace.activity_by_member()
        assert artifact.repository.files_at("main")
        assert artifact.channel.videos[0].minutes >= 5.0

    def test_course_programs_and_artifacts_run_on_first_read(self, monkeypatch):
        from repro.core import study as study_mod
        calls = []

        def counting(assignment):
            calls.append(assignment.number)
            return {}

        monkeypatch.setattr(study_mod, "run_assignment_programs", counting)
        result = PBLStudy(seed=2018).run()
        assert calls == []
        assert "artifacts" not in vars(result)
        outputs = result.program_outputs
        assert calls == [1, 2, 3, 4, 5]
        assert result.program_outputs is outputs
        assert calls == [1, 2, 3, 4, 5]      # the second read ran nothing
        assert len(result.artifacts) == 26

    def test_all_hypotheses_supported(self, study_result):
        assert study_result.all_hypotheses_supported
        assert [h.hypothesis for h in study_result.hypotheses] == ["H1", "H2", "H3"]

    def test_deterministic_for_seed(self):
        a = PBLStudy(seed=2018, simulate_teamwork=False).run()
        b = PBLStudy(seed=2018, simulate_teamwork=False).run()
        assert a.analysis.ttest_growth.t == b.analysis.ttest_growth.t
        assert a.analysis.cohens_d_emphasis.d == b.analysis.cohens_d_emphasis.d

    def test_different_seed_different_raw_data(self):
        b = PBLStudy(seed=7, simulate_teamwork=False).run()
        assert b.analysis.ttest_growth.t != 0.0


class TestAnalysis:
    def test_pipeline_cannot_tell_data_source(self, study_result):
        analysis = analyze_waves(
            study_result.waves["first_half"], study_result.waves["second_half"]
        )
        assert analysis.n == 124
        assert analysis.ttest_emphasis.t == study_result.analysis.ttest_emphasis.t

    def test_table1_shape(self, study_result):
        analysis = study_result.analysis
        assert analysis.ttest_emphasis.mean_difference == pytest.approx(-0.10, abs=0.02)
        assert analysis.ttest_growth.mean_difference == pytest.approx(-0.20, abs=0.02)
        assert analysis.ttest_emphasis.p_value < 0.05
        assert analysis.ttest_growth.p_value < 0.05

    def test_tables_2_3_effect_sizes(self, study_result):
        analysis = study_result.analysis
        assert analysis.cohens_d_emphasis.d == pytest.approx(0.50, abs=0.1)
        assert analysis.cohens_d_emphasis.interpretation == "medium"
        assert analysis.cohens_d_growth.d == pytest.approx(0.86, abs=0.1)
        assert analysis.cohens_d_growth.interpretation == "large"

    def test_table4_values_within_tolerance(self, study_result):
        for (skill, wave), target in PAPER.table4_r.items():
            ours = study_result.analysis.pearson[(skill, wave)]
            assert ours.r == pytest.approx(target, abs=0.05), (skill, wave)
            assert ours.p_value < 0.001

    def test_tables_5_6_means_within_tolerance(self, study_result):
        analysis = study_result.analysis
        for wave in (W1, W2):
            ours = {i.name: i.score for i in analysis.emphasis_ranking[wave]}
            for (skill, w), target in PAPER.table5_emphasis.items():
                if w == wave:
                    assert ours[skill] == pytest.approx(target, abs=0.02), skill
            ours_g = {i.name: i.score for i in analysis.growth_ranking[wave]}
            for (skill, w), target in PAPER.table6_growth.items():
                if w == wave:
                    assert ours_g[skill] == pytest.approx(target, abs=0.02), skill

    def test_hypotheses_evidence_strings(self, study_result):
        for outcome in evaluate_hypotheses(study_result.analysis):
            assert outcome.evidence
            assert "SUPPORTED" in str(outcome)


class TestReport:
    def test_all_fidelity_checks_pass(self, report):
        failures = [c for c in report.fidelity_checks() if not c.passed]
        assert failures == [], "\n".join(str(c) for c in failures)
        assert report.all_checks_pass()

    def test_render_each_table(self, report):
        for i in range(1, 7):
            text = report.render_table(f"table{i}")
            assert f"Table {i}" in text

    def test_table4_renders_paper_convention(self, report):
        assert "p < 0.001" in report.render_table("table4")

    def test_render_figures(self, report):
        fig1 = report.render_figure("fig1")
        assert "assignment 5" in fig1
        fig2 = report.render_figure("fig2")
        assert "participate effectively" in fig2

    def test_unknown_ids_rejected(self, report):
        with pytest.raises(KeyError):
            report.render_table("table9")
        with pytest.raises(KeyError):
            report.render_figure("fig3")

    def test_render_all(self, report):
        text = report.render_all()
        assert "Table 6" in text and "Fig. 1" in text and "[PASS]" in text


class TestReportingHelpers:
    def test_table_alignment(self):
        table = Table("t", ["a", "bb"])
        table.add_row("xxx", 1)
        text = table.render()
        assert "xxx" in text and text.startswith("t\n")

    def test_table_rejects_ragged_rows(self):
        table = Table("t", ["a"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)

    def test_fig_renderers(self):
        assert "week" in render_fig1_timeline()
        assert "Teamwork" in render_fig2_instrument()
        assert "Idea Generation" in render_fig2_instrument(element_name="Idea Generation")
