"""The paired t-test of Table 1, from sufficient statistics.

Table 1 of the paper reports two *paired* t-tests across the 124 students
(first-half vs second-half survey): one on averaged Class-Emphasis scores
and one on averaged Personal-Growth scores, reporting the mean difference,
t statistic, N and two-sided p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.stats.distributions import t_sf

__all__ = ["TTestResult", "ttest_paired_from_stats"]


@dataclass(frozen=True)
class TTestResult:
    """Outcome of a t-test, in the shape the paper's Table 1 prints.

    ``mean_difference`` follows the paper's convention of
    ``mean(first) - mean(second)`` for paired data, hence the negative
    values in Table 1 (scores rose in the second half).
    """

    kind: str
    mean_difference: float
    t: float
    df: float
    p_value: float
    n: int

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the test rejects at significance level ``alpha``."""
        return self.p_value < alpha

    def __str__(self) -> str:
        return (
            f"{self.kind}: mean diff={self.mean_difference:+.4f}, "
            f"t({self.df:g})={self.t:.2f}, p={self.p_value:.4g}, N={self.n}"
        )


def ttest_paired_from_stats(n: int, mean_diff: float, var_diff: float) -> TTestResult:
    """Two-sided paired t-test from sufficient statistics alone.

    ``mean_diff`` and ``var_diff`` are the sample mean and sample
    variance (``ddof=1``) of the per-pair differences — exactly what a
    streamed :class:`~repro.stats.streaming.Moments` accumulator holds.
    The arithmetic mirrors the list-based ``ttest_paired`` oracle in
    ``tests/test_analysis_oracle.py`` operation for operation, so
    feeding it the statistics that oracle computes internally
    reproduces its result bit for bit.
    """
    if n < 2:
        raise ValueError("paired t-test requires at least 2 pairs")
    if var_diff < 0.0:
        raise ValueError(f"variance must be non-negative, got {var_diff}")
    d_sd = math.sqrt(var_diff)
    if d_sd == 0.0:
        raise ValueError("paired t-test undefined when all differences are equal")
    t = mean_diff / (d_sd / math.sqrt(n))
    df = n - 1
    return TTestResult(
        kind="paired",
        mean_difference=mean_diff,
        t=t,
        df=df,
        p_value=2.0 * t_sf(abs(t), df),
        n=n,
    )
