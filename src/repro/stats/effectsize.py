"""Cohen's d of Tables 2 and 3, from sufficient statistics.

Tables 2 and 3 of the paper compute Cohen's d between the first-half and
second-half survey waves with the formula printed verbatim in the paper::

    d = (M2 - M1) / SD_pooled,   SD_pooled = sqrt((SD1^2 + SD2^2) / 2)

(:func:`cohens_d_from_stats`).  Note this is the *average-variance*
pooling, appropriate here because both waves have the same n.

The interpretation bands follow Cohen (and the paper's wording):
d = 0.2 'small', 0.5 'medium', 0.8 'large'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CohensDResult", "cohens_d_from_stats", "cohens_d_interpretation"]

# Thresholds named by Cohen and quoted by the paper.
_SMALL = 0.2
_MEDIUM = 0.5
_LARGE = 0.8


def cohens_d_interpretation(d: float) -> str:
    """Cohen's verbal label for an effect size magnitude.

    The paper reads d at-or-above each threshold as that band
    ("the group means differ by 0.5 standard deviations ... 'medium'").
    Below 0.2 the difference is described as trivial.

    Banding happens at publication precision (2 decimals), as the paper
    itself does: a computed d of 0.4986 is *reported* as 0.50 and read as
    a medium effect.
    """
    magnitude = round(abs(d), 2)
    if magnitude >= _LARGE:
        return "large"
    if magnitude >= _MEDIUM:
        return "medium"
    if magnitude >= _SMALL:
        return "small"
    return "trivial"


@dataclass(frozen=True)
class CohensDResult:
    """Effect size with the inputs the paper tabulates alongside it."""

    d: float
    mean1: float
    mean2: float
    sd1: float
    sd2: float
    n1: int
    n2: int
    sd_pooled: float
    method: str

    @property
    def interpretation(self) -> str:
        """'trivial' / 'small' / 'medium' / 'large' per Cohen's bands."""
        return cohens_d_interpretation(self.d)

    def __str__(self) -> str:
        return (
            f"Cohen's d ({self.method}) = ({self.mean2:.6f} - {self.mean1:.6f}) / "
            f"{self.sd_pooled:.6f} = {self.d:.2f} [{self.interpretation}]"
        )


def cohens_d_from_stats(
    n1: int, mean1: float, var1: float,
    n2: int, mean2: float, var2: float,
) -> CohensDResult:
    """The paper's Cohen's d from per-wave sufficient statistics alone.

    ``var1``/``var2`` are sample variances (``ddof=1``); the arithmetic
    mirrors the list-based ``cohens_d_paper`` oracle in
    ``tests/test_analysis_oracle.py`` operation for operation (square
    roots first, then the average-variance pooling), so feeding it the
    statistics that oracle computes internally reproduces its result
    bit for bit.
    """
    if n1 < 2 or n2 < 2:
        raise ValueError("Cohen's d requires at least 2 observations per wave")
    if var1 < 0.0 or var2 < 0.0:
        raise ValueError(f"variances must be non-negative, got {var1}, {var2}")
    s1, s2 = math.sqrt(var1), math.sqrt(var2)
    sd_pooled = math.sqrt((s1 * s1 + s2 * s2) / 2.0)
    if sd_pooled == 0.0:
        raise ValueError("Cohen's d undefined for two zero-variance samples")
    return CohensDResult(
        d=(mean2 - mean1) / sd_pooled,
        mean1=mean1,
        mean2=mean2,
        sd1=s1,
        sd2=s2,
        n1=n1,
        n2=n2,
        sd_pooled=sd_pooled,
        method="average-variance (paper)",
    )
