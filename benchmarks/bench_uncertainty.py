"""Uncertainty of the reproduced statistics: bootstrap CIs + power.

Puts error bars on the headline numbers: bootstrap CIs around the
regenerated Cohen's d values and the weakest/strongest Table-4
correlations (the paper's point estimates must fall inside), and the
design's statistical power (the paper's N = 124 was amply powered for
both reported effects — the reproduction inherits that).

Also runs the §V distributed-memory stencil as a regression bench.
"""

from repro.mpi import heat_mpi, heat_sequential
from repro.stats import bootstrap_paired_ci, cohens_d_paper, pearson
from repro.stats.power import paired_t_power, required_n_paired_t
from repro.survey.scales import Category
from repro.survey.scoring import cohort_scores


def test_bootstrap_cis_cover_paper_values(benchmark, study_result):
    waves = study_result.waves
    emphasis1 = cohort_scores(waves["first_half"], Category.CLASS_EMPHASIS)
    emphasis2 = cohort_scores(waves["second_half"], Category.CLASS_EMPHASIS)
    growth1 = cohort_scores(waves["first_half"], Category.PERSONAL_GROWTH)
    growth2 = cohort_scores(waves["second_half"], Category.PERSONAL_GROWTH)

    def cis():
        d_emphasis = bootstrap_paired_ci(
            emphasis1.overall, emphasis2.overall,
            lambda a, b: cohens_d_paper(list(a), list(b)).d, seed=11,
        )
        d_growth = bootstrap_paired_ci(
            growth1.overall, growth2.overall,
            lambda a, b: cohens_d_paper(list(a), list(b)).d, seed=11,
        )
        r_weak = bootstrap_paired_ci(
            emphasis1.per_skill["Teamwork"], growth1.per_skill["Teamwork"],
            lambda a, b: pearson(list(a), list(b)).r, seed=11,
        )
        r_strong = bootstrap_paired_ci(
            emphasis2.per_skill["Evaluation and Decision Making"],
            growth2.per_skill["Evaluation and Decision Making"],
            lambda a, b: pearson(list(a), list(b)).r, seed=11,
        )
        return d_emphasis, d_growth, r_weak, r_strong

    d_emphasis, d_growth, r_weak, r_strong = benchmark.pedantic(
        cis, rounds=1, iterations=1
    )
    print()
    print(f"  d (emphasis): {d_emphasis}  paper 0.50")
    print(f"  d (growth):   {d_growth}  paper 0.86")
    print(f"  r Teamwork w1: {r_weak}  paper 0.38")
    print(f"  r Eval&DM w2:  {r_strong}  paper 0.73")
    assert d_emphasis.contains(0.50)
    assert d_growth.contains(0.86)
    assert r_weak.contains(0.38)
    assert r_strong.contains(0.73)
    # Direction certainty: both effects positive across the whole CI.
    assert d_emphasis.low > 0 and d_growth.low > 0


def test_design_power(benchmark, study_result):
    """The paper's design (N = 124) against its own effects."""
    analysis = study_result.analysis
    # d_z for the paired tests: t / sqrt(n).
    d_z_emphasis = abs(analysis.ttest_emphasis.t) / (124 ** 0.5)
    d_z_growth = abs(analysis.ttest_growth.t) / (124 ** 0.5)

    result = benchmark(paired_t_power, d_z_emphasis, 124)
    print()
    print(f"  {result}")
    print(f"  growth: {paired_t_power(d_z_growth, 124)}")
    print(f"  N for 80% power at the emphasis effect: "
          f"{required_n_paired_t(d_z_emphasis)}")
    assert result.power > 0.9
    assert paired_t_power(d_z_growth, 124).power > 0.999
    assert required_n_paired_t(d_z_emphasis) < 124   # the study was overpowered


def test_heat_stencil(benchmark):
    rod = [0.0] * 64
    rod[0], rod[-1] = 100.0, 50.0
    sequential = heat_sequential(rod, steps=100)
    result = benchmark.pedantic(heat_mpi, args=(rod,),
                                kwargs={"steps": 100, "n_ranks": 4},
                                rounds=3, iterations=1)
    assert result == sequential
