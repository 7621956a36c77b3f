"""Seeded bootstrap confidence intervals.

:func:`bootstrap_ci` gives a percentile CI for any statistic of one
sample, deterministic for a given seed.  ``repro bench kernels`` times
it on the loop against the vectorized kernels.

Common statistics take the vectorized fast path in
:mod:`repro.kernels.resample`: pass ``"mean"`` / ``"std"`` / ``"median"``
(or the ``np.mean``/``np.median`` callables, recognised by identity),
and the whole (B, n) index matrix is drawn in one call with the
statistic reduced along an axis — no Python loop, same RNG stream,
bit-identical estimates (property-tested).  Any other callable keeps
the original per-resample loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["BootstrapCI", "bootstrap_ci"]

DEFAULT_RESAMPLES = 2000


@dataclass(frozen=True)
class BootstrapCI:
    """A percentile bootstrap interval."""

    estimate: float
    low: float
    high: float
    level: float
    n_resamples: int

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    @property
    def width(self) -> float:
        return self.high - self.low

    def __str__(self) -> str:
        return (
            f"{self.estimate:.3f} [{self.low:.3f}, {self.high:.3f}] "
            f"({self.level:.0%} bootstrap, B={self.n_resamples})"
        )


def _validate(level: float, n_resamples: int, n: int) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if n_resamples < 100:
        raise ValueError(f"need at least 100 resamples, got {n_resamples}")
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")


def bootstrap_ci(
    xs: Sequence[float],
    statistic: Callable[[Sequence[float]], float] | str,
    level: float = 0.95,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> BootstrapCI:
    """Percentile bootstrap CI for ``statistic(xs)``.

    ``statistic`` may be a callable (looped) or the name of a kernel
    statistic — ``"mean"``, ``"std"``, or ``"median"`` — for the
    vectorized path.
    """
    from repro import kernels
    from repro.kernels.resample import resolve_statistic, statistic_value

    _validate(level, n_resamples, len(xs))
    data = np.asarray(xs, dtype=float)
    name = resolve_statistic(statistic)
    if name is not None:
        estimates = kernels.bootstrap_estimates(data, name, n_resamples, seed)
        estimate = statistic_value(data, name)
    else:
        rng = np.random.default_rng(seed)
        estimates = np.empty(n_resamples)
        n = len(data)
        for b in range(n_resamples):
            estimates[b] = statistic(data[rng.integers(0, n, size=n)])
        estimate = float(statistic(data))
    alpha = (1.0 - level) / 2.0
    return BootstrapCI(
        estimate=estimate,
        low=float(np.quantile(estimates, alpha)),
        high=float(np.quantile(estimates, 1.0 - alpha)),
        level=level,
        n_resamples=n_resamples,
    )
