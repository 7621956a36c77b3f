"""Deeper survey analytics on the regenerated study data.

Usage::

    python examples/survey_analytics.py

Goes beyond the paper's own tables: internal-consistency (Cronbach's
alpha) per element, a section-vs-section comparison, and the Discussion
section's derived quantities — all computed from the same raw item-level
responses that regenerate Tables 1–6.
"""

from __future__ import annotations

from repro.core import PBLStudy
from repro.core.targets import W1, W2
from repro.stats import ttest_welch
from repro.survey import Category
from repro.survey.reliability import wave_reliability
from repro.survey.scoring import cohort_scores


def main() -> None:
    result = PBLStudy.default().run()
    wave2 = result.waves["second_half"]

    print("=== Internal consistency (Cronbach's alpha), wave 2 ===")
    for category in Category:
        print(f"\n{category.value}:")
        for element, alpha in wave_reliability(wave2, category).items():
            print(f"  {element:32s} {alpha}")

    print("\n=== Section 1 vs section 2 (Welch t, wave 2 growth) ===")
    scores = cohort_scores(wave2, Category.PERSONAL_GROWTH)
    index = {sid: i for i, sid in enumerate(scores.student_ids)}
    s1_ids = {s.student_id for s in result.sections[0].students}
    s1 = [scores.overall[index[sid]] for sid in scores.student_ids if sid in s1_ids]
    s2 = [scores.overall[index[sid]] for sid in scores.student_ids if sid not in s1_ids]
    welch = ttest_welch(s1, s2)
    print(f"  {welch}")

    print("\n=== Discussion quantities ===")
    analysis = result.analysis
    print(f"  growth spread wave 1: {analysis.growth_spread[W1]:.2f} "
          f"(selective growth)")
    print(f"  growth spread wave 2: {analysis.growth_spread[W2]:.2f} "
          f"(more equal growth)")
    print("  emphasis - growth gaps, wave 2 (redesign threshold 0.2):")
    for element, (gap, flagged) in sorted(analysis.gaps[W2].items(),
                                          key=lambda kv: -kv[1][0]):
        marker = "  <-- exceeds threshold" if flagged else ""
        print(f"    {element:32s} {gap:+.3f}{marker}")


if __name__ == "__main__":
    main()
