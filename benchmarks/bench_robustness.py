"""Robustness of the reproduction: seed sensitivity and reliability.

The tables must not depend on one lucky random seed.  This bench
recalibrates and regenerates the study across several seeds and checks
that the headline shapes hold for every one of them — plus the internal
consistency (Cronbach's alpha) of the generated survey data.
"""

import pytest

from repro.core import PBLStudy
from repro.core.targets import PAPER
from repro.survey import Category
from repro.survey.reliability import wave_reliability

SEEDS = (2018, 7, 42, 1, 555)


def _headline(seed: int) -> dict:
    result = PBLStudy(seed=seed, simulate_teamwork=False).run()
    analysis = result.analysis
    return {
        "emphasis_diff": analysis.ttest_emphasis.mean_difference,
        "growth_diff": analysis.ttest_growth.mean_difference,
        "emphasis_p": analysis.ttest_emphasis.p_value,
        "growth_p": analysis.ttest_growth.p_value,
        "d_emphasis": analysis.cohens_d_emphasis.d,
        "d_growth": analysis.cohens_d_growth.d,
        "min_r": min(c.r for c in analysis.pearson.values()),
        "max_r_err": max(
            abs(analysis.pearson[key].r - target)
            for key, target in PAPER.table4_r.items()
        ),
        "top_growth": result.analysis.growth_ranking["first_half"][0].name,
    }


def test_seed_sensitivity(benchmark):
    headline = benchmark(_headline, SEEDS[0])

    print()
    rows = {SEEDS[0]: headline}
    for seed in SEEDS[1:]:
        rows[seed] = _headline(seed)
    for seed, row in rows.items():
        print(f"  seed {seed}: d_e={row['d_emphasis']:.2f} "
              f"d_g={row['d_growth']:.2f} max|r err|={row['max_r_err']:.3f} "
              f"top growth={row['top_growth']}")

    for seed, row in rows.items():
        # The shapes that constitute the paper's findings, per seed.
        assert row["emphasis_diff"] < 0, seed
        assert row["growth_diff"] < 0, seed
        assert row["emphasis_p"] < 0.05 and row["growth_p"] < 0.05, seed
        assert 0.4 <= row["d_emphasis"] <= 0.65, seed
        assert 0.7 <= row["d_growth"] <= 1.0, seed
        assert row["min_r"] > 0.3, seed
        assert row["max_r_err"] < 0.08, seed
        assert row["top_growth"] == "Teamwork", seed


def test_generated_data_reliability(benchmark, study_result):
    wave = study_result.waves["first_half"]
    alphas = benchmark(wave_reliability, wave, Category.PERSONAL_GROWTH)

    print()
    for element, result in alphas.items():
        print(f"  {element}: {result}")
    assert all(r.alpha > 0.6 for r in alphas.values())
