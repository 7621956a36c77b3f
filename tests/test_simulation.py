"""The response model and its calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.targets import PAPER, simulation_targets
from repro.simulation import ModelKnobs, ResponseModel, assemble_waves, calibrate
from repro.simulation.model import CATEGORIES, WAVES
from repro.survey.instrument import ELEMENT_NAMES, team_design_skills_survey
from repro.survey.scales import Category

TARGETS = simulation_targets(PAPER)


def small_model(seed=11, n=30):
    return ResponseModel(ELEMENT_NAMES, n_students=n, seed=seed)


class TestModel:
    def test_scores_on_likert_grid(self):
        model = small_model()
        raw = model.generate(ModelKnobs.initial(_targets_n(30)))
        assert raw.scores.min() >= 1 and raw.scores.max() <= 5
        assert raw.scores.dtype == np.int8

    def test_shape(self):
        model = small_model()
        raw = model.generate(ModelKnobs.initial(_targets_n(30)))
        assert raw.scores.shape == (30, 7, 2, 2, 5)

    def test_deterministic_given_seed_and_knobs(self):
        knobs = ModelKnobs.initial(_targets_n(30))
        a = small_model(seed=3).generate(knobs)
        b = small_model(seed=3).generate(knobs)
        assert np.array_equal(a.scores, b.scores)

    def test_different_seeds_differ(self):
        knobs = ModelKnobs.initial(_targets_n(30))
        a = small_model(seed=3).generate(knobs)
        b = small_model(seed=4).generate(knobs)
        assert not np.array_equal(a.scores, b.scores)

    def test_mu_monotonicity(self):
        """Raising a skill's latent mean raises its observed mean."""
        model = small_model(n=80)
        low = ModelKnobs.initial(_targets_n(80))
        high = low.copy()
        high.mu = high.mu + 0.3
        assert (
            model.observed(high)["skill_mean"].mean()
            > model.observed(low)["skill_mean"].mean()
        )

    def test_alpha_raises_overall_sd(self):
        model = small_model(n=80)
        knobs = ModelKnobs.initial(_targets_n(80))
        knobs.alpha = np.full((2, 2), 0.1)
        low_sd = model.observed(knobs)["overall_sd"].mean()
        knobs.alpha = np.full((2, 2), 0.9)
        high_sd = model.observed(knobs)["overall_sd"].mean()
        assert high_sd > low_sd

    def test_cq_raises_pearson(self):
        model = small_model(n=100)
        knobs = ModelKnobs.initial(_targets_n(100))
        knobs.c_q = np.full((7, 2), -0.5)
        low_r = model.observed(knobs)["pearson_r"].mean()
        knobs.c_q = np.full((7, 2), 0.9)
        high_r = model.observed(knobs)["pearson_r"].mean()
        assert high_r > low_r

    def test_composite_vs_skill_score(self):
        model = small_model()
        raw = model.generate(ModelKnobs.initial(_targets_n(30)))
        composite = raw.composite_score()
        # Composite = (def + mean(comp))/2, bounded by item range.
        assert composite.min() >= 1.0 and composite.max() <= 5.0

    def test_validates_knob_shapes(self):
        model = small_model()
        knobs = ModelKnobs.initial(_targets_n(30))
        knobs.mu = knobs.mu[:3]
        with pytest.raises(ValueError):
            model.generate(knobs)

    def test_validates_alpha_range(self):
        model = small_model()
        knobs = ModelKnobs.initial(_targets_n(30))
        knobs.alpha = np.full((2, 2), 1.5)
        with pytest.raises(ValueError):
            model.generate(knobs)

    def test_rejects_tiny_cohort(self):
        with pytest.raises(ValueError):
            ResponseModel(ELEMENT_NAMES, n_students=1)

    def test_rejects_single_item_skills(self):
        # One item leaves no component items, so the composite score
        # would be the mean of an empty slice (NaN).
        with pytest.raises(ValueError, match="at least 2 items"):
            ResponseModel(ELEMENT_NAMES, n_students=30, items_per_skill=1)


def _targets_n(n):
    """Paper targets with a different cohort size (for small fast models)."""
    base = simulation_targets(PAPER)
    from repro.simulation.model import SimulationTargets
    return SimulationTargets(
        skills=base.skills,
        n_students=n,
        skill_means=dict(base.skill_means),
        overall_sd=dict(base.overall_sd),
        pearson_r=dict(base.pearson_r),
    )


class TestTargets:
    def test_paper_targets_complete(self):
        assert len(TARGETS.skill_means) == 7 * 2 * 2
        assert len(TARGETS.pearson_r) == 14
        assert len(TARGETS.overall_sd) == 4

    def test_overall_means_consistent_with_per_skill(self):
        """Paper self-consistency: mean of Table 5 w1 = Table 2 M1, etc."""
        w1_emph = np.mean([
            v for (s, c, w), v in TARGETS.skill_means.items()
            if c == "class_emphasis" and w == "first_half"
        ])
        assert w1_emph == pytest.approx(PAPER.table2.mean1, abs=0.01)
        w1_growth = np.mean([
            v for (s, c, w), v in TARGETS.skill_means.items()
            if c == "personal_growth" and w == "first_half"
        ])
        assert w1_growth == pytest.approx(PAPER.table3.mean1, abs=0.01)

    def test_rejects_incomplete_targets(self):
        from repro.simulation.model import SimulationTargets
        with pytest.raises(ValueError):
            SimulationTargets(
                skills=("a",), n_students=10,
                skill_means={}, overall_sd={}, pearson_r={},
            )


class TestCalibration:
    def test_converges_on_default_seed(self, calibrated_model):
        _model, _targets, result = calibrated_model
        assert result.converged
        assert result.max_mean_error <= 0.005
        assert result.max_sd_error <= 0.005
        assert result.max_r_error <= 0.02

    def test_observed_statistics_match_paper(self, calibrated_model):
        model, targets, result = calibrated_model
        obs = model.observed(result.knobs)
        for ci, cat in enumerate(CATEGORIES):
            for wi, wave in enumerate(WAVES):
                assert obs["overall_sd"][ci, wi] == pytest.approx(
                    targets.overall_sd[(cat, wave)], abs=0.006
                )
        for ki, skill in enumerate(targets.skills):
            for wi, wave in enumerate(WAVES):
                assert obs["pearson_r"][ki, wi] == pytest.approx(
                    targets.pearson_r[(skill, wave)], abs=0.025
                )

    def test_mismatched_skills_rejected(self):
        model = ResponseModel(("only",), n_students=124)
        with pytest.raises(ValueError):
            calibrate(model, TARGETS)

    def test_mismatched_cohort_rejected(self):
        model = ResponseModel(ELEMENT_NAMES, n_students=50)
        with pytest.raises(ValueError):
            calibrate(model, TARGETS)

    def test_uncalibrated_model_misses_targets(self):
        """The ablation: naive knobs do NOT reproduce the paper — evidence
        the tables are regenerated, not hard-coded."""
        model = ResponseModel(ELEMENT_NAMES, n_students=124, seed=2018)
        naive = model.observed(ModelKnobs.initial(TARGETS))
        r_err = 0.0
        for ki, skill in enumerate(TARGETS.skills):
            for wi, wave in enumerate(WAVES):
                r_err = max(r_err, abs(
                    naive["pearson_r"][ki, wi] - TARGETS.pearson_r[(skill, wave)]
                ))
        assert r_err > 0.02  # outside the calibrated tolerance


class TestAssemble:
    def test_round_trip_preserves_scores(self, calibrated_model):
        model, targets, result = calibrated_model
        raw = model.generate(result.knobs)
        ids = [f"s{i:03d}" for i in range(targets.n_students)]
        waves = assemble_waves(raw, team_design_skills_survey(), ids)
        assert set(waves) == {"first_half", "second_half"}
        wave = waves["first_half"]
        assert wave.n == targets.n_students
        wave.validate()
        # Spot-check one cell: student 0, skill 0, emphasis, wave 1.
        response = wave.by_student()["s000"]
        rating = response.rating(ELEMENT_NAMES[0], Category.CLASS_EMPHASIS)
        assert rating.definition == int(raw.scores[0, 0, 0, 0, 0])
        assert rating.components == tuple(int(x) for x in raw.scores[0, 0, 0, 0, 1:])

    def test_id_count_mismatch_rejected(self, calibrated_model):
        model, _targets, result = calibrated_model
        raw = model.generate(result.knobs)
        with pytest.raises(ValueError):
            assemble_waves(raw, team_design_skills_survey(), ["a", "b"])

    def test_wrong_instrument_rejected(self, calibrated_model):
        model, targets, result = calibrated_model
        raw = model.generate(result.knobs)
        from repro.survey.instrument import Element, Instrument, Item
        tiny = Instrument("t", (Element(
            "Solo", Item("S0", "d", is_definition=True), (Item("S1", "c"),),
        ),))
        ids = [f"s{i}" for i in range(targets.n_students)]
        with pytest.raises(ValueError):
            assemble_waves(raw, tiny, ids)
