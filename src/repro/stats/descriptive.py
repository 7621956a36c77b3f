"""Descriptive statistics: the mean and the median.

The bootstrap benchmark (``repro bench kernels``) times
:func:`repro.stats.bootstrap.bootstrap_ci` with these two as callable
statistics against the vectorized kernels that must reproduce them bit
for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["mean", "median"]


def mean(xs: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    n = len(xs)
    if n == 0:
        raise ValueError("mean of empty sequence")
    return math.fsum(xs) / n


def median(xs: Sequence[float]) -> float:
    """Median (average of the two central order statistics for even n)."""
    n = len(xs)
    if n == 0:
        raise ValueError("median of empty sequence")
    s = sorted(xs)
    mid = n // 2
    if n % 2:
        return float(s[mid])
    return 0.5 * (s[mid - 1] + s[mid])
