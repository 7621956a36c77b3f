"""Cohort-size sensitivity: would a smaller study still find the effects?

The paper had 124 students.  :func:`subsample_analysis` reruns the exact
published analysis on a random subset of the cohort, and
:func:`sensitivity_sweep` maps effect detection across cohort sizes —
connecting the simulation to the power analysis in
:mod:`repro.stats.power` (the empirical detection rates should track the
analytic power curve, which the tests verify at a coarse level).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.survey.responses import WaveResponses

if TYPE_CHECKING:
    from repro.core.analysis import StudyAnalysis

__all__ = ["SensitivityPoint", "subsample_analysis", "sensitivity_sweep"]

#: The smallest cohort the analysis is defined on: Table 4's Pearson
#: correlations need at least 3 pairs.
MIN_COHORT = 3


def _subsample(wave: WaveResponses, ids: list[str]) -> WaveResponses:
    wanted = set(ids)
    return WaveResponses(
        wave_name=wave.wave_name,
        instrument=wave.instrument,
        responses=tuple(r for r in wave.responses if r.student_id in wanted),
    )


def subsample_analysis(
    first: WaveResponses,
    second: WaveResponses,
    n: int,
    seed: int = 0,
) -> StudyAnalysis:
    """The published analysis on a random n-student subset of the cohort."""
    common = sorted(
        {r.student_id for r in first.responses}
        & {r.student_id for r in second.responses}
    )
    if not MIN_COHORT <= n <= len(common):
        raise ValueError(
            f"n must be in [{MIN_COHORT}, {len(common)}] (the analysis "
            f"needs at least {MIN_COHORT} students), got {n}"
        )
    # Imported here: repro.core imports this package (the study and the
    # analysis sit above the simulation layer).
    from repro.core.analysis import analyze_waves

    rng = np.random.default_rng(seed)
    chosen = list(rng.choice(common, size=n, replace=False))
    return analyze_waves(_subsample(first, chosen), _subsample(second, chosen))


@dataclass(frozen=True)
class SensitivityPoint:
    """Detection behaviour at one cohort size."""

    n: int
    n_replicates: int
    emphasis_detection_rate: float    # fraction of subsamples with p < .05
    growth_detection_rate: float
    mean_d_emphasis: float
    mean_d_growth: float


def sensitivity_sweep(
    first: WaveResponses,
    second: WaveResponses,
    sizes: tuple[int, ...] = (16, 32, 64, 124),
    n_replicates: int = 10,
    seed: int = 0,
) -> list[SensitivityPoint]:
    """Detection rates of the two headline effects across cohort sizes."""
    if n_replicates < 1:
        raise ValueError("need at least one replicate")
    too_small = [size for size in sizes if size < MIN_COHORT]
    if too_small:
        raise ValueError(
            f"cohort sizes must be at least {MIN_COHORT} (the analysis "
            f"needs at least {MIN_COHORT} students), got {too_small}"
        )
    points: list[SensitivityPoint] = []
    for size in sizes:
        emphasis_hits = 0
        growth_hits = 0
        d_emphasis: list[float] = []
        d_growth: list[float] = []
        for replicate in range(n_replicates):
            analysis = subsample_analysis(
                first, second, size, seed=seed * 1000 + size * 17 + replicate
            )
            emphasis_hits += analysis.ttest_emphasis.p_value < 0.05
            growth_hits += analysis.ttest_growth.p_value < 0.05
            d_emphasis.append(analysis.cohens_d_emphasis.d)
            d_growth.append(analysis.cohens_d_growth.d)
        points.append(SensitivityPoint(
            n=size,
            n_replicates=n_replicates,
            emphasis_detection_rate=emphasis_hits / n_replicates,
            growth_detection_rate=growth_hits / n_replicates,
            mean_d_emphasis=float(np.mean(d_emphasis)),
            mean_d_growth=float(np.mean(d_growth)),
        ))
    return points
