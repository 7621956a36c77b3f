"""Fully vectorized bootstrap resampling.

The scalar loop in :mod:`repro.stats.bootstrap` draws one index vector
per resample and applies a Python callable B times.  For the statistics
the reproduction actually bootstraps — the mean, the sample SD and the
median — the whole procedure collapses to array expressions: draw the
complete (B, n) index matrix in one call and reduce along ``axis=1``.

Bit-identity with the scalar path holds by construction and is pinned
by property tests:

- ``Generator.integers(0, n, size=(B, n))`` consumes the PCG64 stream
  in exactly the order of B successive ``size=n`` draws, so both
  backends see the *same resamples*;
- NumPy's pairwise summation depends only on the length and layout of
  the reduced axis, so ``mat.mean(axis=1)`` equals ``np.mean(row)`` for
  every C-contiguous row, float for float — and the per-row oracle here
  uses the same expressions the vectorized path uses.

Statistics are *named* (:data:`STATISTICS`);
:func:`resolve_statistic` also recognises ``np.mean`` itself so the
common ``bootstrap_ci(xs, np.mean)`` call takes the fast path without
any caller change.  Unknown callables stay on the loop.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

__all__ = [
    "STATISTICS",
    "resolve_statistic",
    "statistic_value",
    "bootstrap_estimates_python",
    "bootstrap_estimates_numpy",
]

#: Named one-sample statistics with a vectorized implementation.
STATISTICS = ("mean", "std", "median")


def resolve_statistic(statistic: Any) -> str | None:
    """Map a ``bootstrap_ci`` statistic to a kernel name, or ``None``.

    Strings must name a known statistic (anything else is an error —
    a typo should not silently fall back to calling a string).  The
    ``np.mean`` callable is recognised by identity.
    """
    if isinstance(statistic, str):
        if statistic not in STATISTICS:
            raise ValueError(
                f"unknown bootstrap statistic {statistic!r}; "
                f"expected one of {STATISTICS} (or pass a callable)"
            )
        return statistic
    if statistic is np.mean:
        return "mean"
    if statistic is np.median:
        return "median"
    return None


# -- the statistics themselves (1-D row and (B, n) matrix forms) -------------
#
# Row and matrix forms use the same expressions in the same order; the
# matrix form only swaps ``.mean()`` for ``.mean(axis=1)`` etc., which
# NumPy reduces with the identical pairwise algorithm per row.

def statistic_value(data: np.ndarray, name: str) -> float:
    """The plug-in estimate of a named statistic on the full sample."""
    if name == "mean":
        return float(data.mean())
    if name == "std":
        return float(data.std(ddof=1))
    if name == "median":
        return float(_rows_median(data[None, :])[0])
    raise ValueError(f"unknown statistic {name!r}")


def _rows_median(matrix: np.ndarray) -> np.ndarray:
    """Per-row median, bit-identical to :func:`repro.stats.descriptive.median`.

    Deliberately *not* ``np.quantile(..., 0.5)``: NumPy's quantile
    interpolates with ``b - (b - a) * 0.5``, which is not the oracle's
    ``0.5 * (a + b)`` in IEEE-754 — e.g. a=-1.0, b=1.0000000000000002
    gives 2.220446049250313e-16 vs the oracle's 1.1102230246251565e-16.
    ``np.partition`` is pure selection (no arithmetic on values), after
    which the even-length midpoint uses the oracle's exact expression.
    """
    n = matrix.shape[1]
    mid = n // 2
    if n % 2:
        return np.partition(matrix, mid, axis=1)[:, mid].astype(np.float64)
    part = np.partition(matrix, (mid - 1, mid), axis=1)
    return 0.5 * (part[:, mid - 1] + part[:, mid])


def _rows_statistic(matrix: np.ndarray, name: str) -> np.ndarray:
    if name == "mean":
        return matrix.mean(axis=1)
    if name == "std":
        return matrix.std(axis=1, ddof=1)
    if name == "median":
        return _rows_median(matrix)
    raise ValueError(f"unknown statistic {name!r}")


# -- backends ----------------------------------------------------------------

#: Rows per block of the vectorized draw.  The index matrix is drawn and
#: reduced in (``_BLOCK_ROWS``, n) blocks instead of one (B, n) slab:
#: the stream is filled row-major, so blockwise draws consume PCG64
#: identically, every row statistic reduces the same bytes — and the
#: working set stays cache-resident instead of paying page faults on a
#: fresh multi-megabyte allocation each call (~2× on B=2000, n=124).
_BLOCK_ROWS = 256


def bootstrap_estimates_python(
    data: np.ndarray, name: str, n_resamples: int, seed: int
) -> np.ndarray:
    """Scalar oracle: B sequential draws, one row statistic per draw."""
    rng = np.random.default_rng(seed)
    n = data.size
    estimates = np.empty(n_resamples)
    row: Callable[[np.ndarray], np.ndarray] = lambda m: _rows_statistic(m, name)
    for b in range(n_resamples):
        resample = data[rng.integers(0, n, size=n)]
        estimates[b] = row(resample[None, :])[0]
    return estimates


def bootstrap_estimates_numpy(
    data: np.ndarray, name: str, n_resamples: int, seed: int
) -> np.ndarray:
    """The whole index matrix at once, reduced along ``axis=1``."""
    rng = np.random.default_rng(seed)
    n = data.size
    estimates = np.empty(n_resamples)
    for start in range(0, n_resamples, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_resamples)
        index = rng.integers(0, n, size=(stop - start, n))
        estimates[start:stop] = _rows_statistic(data[index], name)
    return estimates
