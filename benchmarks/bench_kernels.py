"""Kernel cost: the fast paths the default backend ships vs the scalar
oracles.

Shape criteria (absolute numbers are machine-dependent, shapes are
not): every fast kernel — the bit-parallel LCS per ligand and batched,
the slice stencil, the matrix bootstrap — is at least as fast as its
scalar twin at the benchmark sizes, and chunked scheduler dispatch
beats one-task-per-ligand (the per-task bookkeeping is paid once per
chunk).

``python -m repro bench kernels`` (:mod:`repro.kernels.bench`) times
the same pairs at larger sizes and writes the ``BENCH_kernels.json``
point.
"""

from __future__ import annotations

from repro import kernels
from repro.drugdesign.ligands import DEFAULT_PROTEIN, generate_ligands
from repro.kernels import lcs as lcs_kernels
from repro.kernels import stencil as stencil_kernels
from repro.stats.bootstrap import bootstrap_ci

_LIGANDS = generate_ligands(120, 7, seed=500)
_SAMPLE = [4.0 + 0.001 * i for i in range(124)]
_ROD = [float((i * 37) % 100) for i in range(512)]


def test_lcs_scalar_baseline(benchmark):
    """Baseline: the per-ligand scalar DP over the Assignment-5 sweep."""
    scores = benchmark(
        lambda: [
            lcs_kernels.lcs_score_python(lig, DEFAULT_PROTEIN)
            for lig in _LIGANDS
        ]
    )
    assert max(scores) >= 1


def test_lcs_per_ligand_kernel(benchmark):
    """The bit-parallel kernel, one call per ligand (``kernels.lcs_score``),
    must reproduce the scalar scores."""
    scores = benchmark(
        lambda: [
            lcs_kernels.lcs_score_bitparallel(lig, DEFAULT_PROTEIN)
            for lig in _LIGANDS
        ]
    )
    assert scores == [
        lcs_kernels.lcs_score_python(lig, DEFAULT_PROTEIN) for lig in _LIGANDS
    ]


def test_lcs_batched_kernel(benchmark):
    """The batched bit-parallel kernel (``kernels.lcs_scores``) must
    reproduce the scalar scores."""
    scores = benchmark(
        lambda: lcs_kernels.lcs_scores_bitparallel(_LIGANDS, DEFAULT_PROTEIN)
    )
    assert scores == [
        lcs_kernels.lcs_score_python(lig, DEFAULT_PROTEIN) for lig in _LIGANDS
    ]


def test_stencil_scalar_baseline(benchmark):
    out = benchmark(lambda: stencil_kernels.heat_steps_python(_ROD, 0.25, 50))
    assert len(out) == len(_ROD)


def test_stencil_vectorized_kernel(benchmark):
    """The slice kernel must be bit-identical to the per-cell loop."""
    out = benchmark(lambda: stencil_kernels.heat_steps_numpy(_ROD, 0.25, 50))
    assert out == stencil_kernels.heat_steps_python(_ROD, 0.25, 50)


def test_bootstrap_scalar_baseline(benchmark):
    def run():
        with kernels.use_backend("python"):
            return bootstrap_ci(_SAMPLE, "mean", n_resamples=500, seed=3)

    ci = benchmark(run)
    assert ci.low <= ci.estimate <= ci.high


def test_bootstrap_matrix_kernel(benchmark):
    """The (B, n) matrix kernel must give the bit-identical CI."""

    def run():
        with kernels.use_backend("numpy"):
            return bootstrap_ci(_SAMPLE, "mean", n_resamples=500, seed=3)

    ci = benchmark(run)
    with kernels.use_backend("python"):
        oracle = bootstrap_ci(_SAMPLE, "mean", n_resamples=500, seed=3)
    assert (ci.low, ci.estimate, ci.high) == (
        oracle.low, oracle.estimate, oracle.high
    )


def test_bootstrap_median_scalar_baseline(benchmark):
    from repro.stats.descriptive import median

    def run():
        # A callable statistic keeps the loop: one full sort per resample.
        return bootstrap_ci(_SAMPLE, median, n_resamples=500, seed=3)

    ci = benchmark(run)
    assert ci.low <= ci.estimate <= ci.high


def test_bootstrap_median_partition_kernel(benchmark):
    """The partition kernel must give the bit-identical median CI."""
    from repro.stats.descriptive import median

    def run():
        with kernels.use_backend("numpy"):
            return bootstrap_ci(_SAMPLE, "median", n_resamples=500, seed=3)

    ci = benchmark(run)
    oracle = bootstrap_ci(_SAMPLE, median, n_resamples=500, seed=3)
    assert (ci.low, ci.estimate, ci.high) == (
        oracle.low, oracle.estimate, oracle.high
    )
