"""The Discussion section's derived quantities on the regenerated study data.

Usage::

    python examples/survey_analytics.py

Prints the growth spreads and the emphasis-growth gaps the paper's
Discussion reads off Tables 5 and 6, all from ``result.analysis``: the
same analysis of the raw item-level responses that regenerates
Tables 1–6.
"""

from __future__ import annotations

from repro.core import PBLStudy
from repro.core.targets import W1, W2


def main() -> None:
    analysis = PBLStudy.default().run().analysis

    print("=== Discussion quantities ===")
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
