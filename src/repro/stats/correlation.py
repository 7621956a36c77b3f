"""Pearson correlation of Table 4, from sufficient statistics.

Table 4 of the paper reports Pearson correlations between Class Emphasis
and Personal Growth for each of the seven survey elements, in each survey
wave, with p-values (all reported as ``p < 0.001`` following Greenland et
al.'s recommendation for very small p).  :func:`pearson_r_from_stats`
reproduces that analysis, and :meth:`CorrelationResult.p_report` the
paper's p-value reporting convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.stats.distributions import t_sf
from repro.stats.guilford import GuilfordBand, guilford_band

__all__ = ["CorrelationResult", "pearson_r_from_stats"]


@dataclass(frozen=True)
class CorrelationResult:
    """Correlation coefficient with its significance test.

    ``p_value`` comes from the exact t-transform
    ``t = r * sqrt((n-2) / (1-r^2))`` with ``n - 2`` degrees of freedom.
    """

    r: float
    p_value: float
    n: int
    method: str

    @property
    def strength(self) -> GuilfordBand:
        """Guilford (1956) strength band, as the paper interprets Table 4."""
        return guilford_band(self.r)

    def p_report(self, floor: float = 0.001) -> str:
        """The paper's reporting convention: tiny p become ``p < 0.001``."""
        if self.p_value < floor:
            return f"p < {floor:g}"
        return f"p = {self.p_value:.3f}"

    def __str__(self) -> str:
        return f"{self.method} r={self.r:.2f} ({self.p_report()}, N={self.n}) [{self.strength.label}]"


def pearson_r_from_stats(
    n: int, sxx: float, syy: float, sxy: float
) -> CorrelationResult:
    """Pearson correlation from centered sufficient statistics alone.

    ``sxx``/``syy`` are the centered second moments and ``sxy`` the
    centered cross-product — exactly what a streamed
    :class:`~repro.stats.streaming.CoMoments` accumulator holds.  The
    arithmetic mirrors the list-based ``pearson`` oracle in
    ``tests/test_analysis_oracle.py`` (same clamp, same t-transform), so
    feeding it the sums that oracle computes internally reproduces its
    result bit for bit.
    """
    if n < 3:
        raise ValueError("correlation requires at least 3 pairs")
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined for a constant sequence")
    denom = math.sqrt(sxx * syy)
    if denom == 0.0:
        # sxx * syy underflowed to zero for denormal-scale sums; the
        # factored form cannot underflow when both inputs are nonzero.
        denom = math.sqrt(sxx) * math.sqrt(syy)
    r = sxy / denom
    # Guard against floating-point overshoot past +/-1.
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = 2.0 * t_sf(abs(t), n - 2)
    return CorrelationResult(r=r, p_value=p, n=n, method="pearson")
