"""The kernel benchmark behind ``python -m repro bench kernels``.

Three measurements, one per hot loop, each scalar-vs-fast on the same
inputs:

- **lcs** — the Assignment-5 ligand-scoring sweep (the paper's
  ``max_ligand`` 5 → 7 protocol) scored three ways: the scalar DP per
  ligand, and the kernel the default backend ships — the bit-parallel
  LCS — once per ligand (what ``kernels.lcs_score`` runs) and batched
  over the whole sweep per call (what ``kernels.lcs_scores`` runs);
  plus the *dispatch* pair — the same sweep through the work-stealing
  scheduler one-task-per-ligand on the scalar backend vs chunked tasks
  on the batched kernel;
- **stencil** — the heat rod advanced by the per-cell loop vs the slice
  kernel;
- **bootstrap** — ``bootstrap_ci(mean)`` at B resamples on the loop vs
  the (B, n) matrix kernel; plus the same pair for ``median``, where
  the loop pays a full sort per resample and the kernel one
  ``np.partition`` per block.

Results go to ``BENCH_kernels.json`` through :mod:`repro.benchutil`,
whose gates pass when no fast path (per-ligand or batched LCS, stencil,
either bootstrap) is slower than its scalar twin at the benchmark sizes
— the CI smoke gate.  Absolute times are machine-dependent; the
*ratios* are the trajectory the ROADMAP tracks.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import kernels
from repro.benchutil import median_seconds
from repro.drugdesign.ligands import DEFAULT_PROTEIN, generate_ligands
from repro.kernels import lcs as lcs_kernels
from repro.kernels import stencil as stencil_kernels

__all__ = ["measure"]

#: The Assignment-5 sweep conditions: (n_ligands, max_ligand).  Raising
#: max_ligand from 5 to 7 is the assignment's "more work" step.
SWEEP = ((120, 5), (120, 7))


def _sweep_ligands() -> list[list[str]]:
    return [
        generate_ligands(n, max_ligand, seed=500) for n, max_ligand in SWEEP
    ]


def _bench_lcs(repeats: int) -> dict[str, float]:
    batches = _sweep_ligands()
    protein = DEFAULT_PROTEIN

    def scalar() -> None:
        for batch in batches:
            for ligand in batch:
                lcs_kernels.lcs_score_python(ligand, protein)

    def per_ligand() -> None:
        for batch in batches:
            for ligand in batch:
                lcs_kernels.lcs_score_bitparallel(ligand, protein)

    def batched() -> None:
        for batch in batches:
            lcs_kernels.lcs_scores_bitparallel(batch, protein)

    scalar_s = median_seconds(scalar, repeats)
    vector_s = median_seconds(per_ligand, repeats)
    batched_s = median_seconds(batched, repeats)
    return {
        "lcs_scalar_s": scalar_s,
        "lcs_vector_s": vector_s,
        "lcs_batched_s": batched_s,
        "lcs_vector_speedup": scalar_s / vector_s,
        "lcs_batched_speedup": scalar_s / batched_s,
    }


def _bench_dispatch(repeats: int, chunk: int) -> dict[str, float]:
    from repro.drugdesign.solvers import solve_sched
    from repro.sched.executor import WorkStealingExecutor

    batches = _sweep_ligands()
    protein = DEFAULT_PROTEIN

    def run(backend: str, chunk_size: int) -> None:
        with kernels.use_backend(backend):
            for batch in batches:
                executor = WorkStealingExecutor(n_workers=4, seed=7)
                solve_sched(batch, protein, executor, chunk=chunk_size)

    scalar_s = median_seconds(lambda: run("python", 1), repeats)
    batched_s = median_seconds(lambda: run("numpy", chunk), repeats)
    return {
        "dispatch_scalar_s": scalar_s,
        "dispatch_batched_s": batched_s,
        "dispatch_chunk": chunk,
        "dispatch_speedup": scalar_s / batched_s,
    }


def _bench_stencil(repeats: int, cells: int, steps: int) -> dict[str, float]:
    rng = np.random.default_rng(7)
    u0 = rng.uniform(0.0, 100.0, cells).tolist()
    scalar_s = median_seconds(
        lambda: stencil_kernels.heat_steps_python(u0, 0.25, steps), repeats
    )
    vector_s = median_seconds(
        lambda: stencil_kernels.heat_steps_numpy(u0, 0.25, steps), repeats
    )
    return {
        "stencil_cells": cells,
        "stencil_steps": steps,
        "stencil_scalar_s": scalar_s,
        "stencil_vector_s": vector_s,
        "stencil_speedup": scalar_s / vector_s,
    }


def _bench_bootstrap(repeats: int, n_resamples: int) -> dict[str, float]:
    from repro.stats.bootstrap import bootstrap_ci
    from repro.stats.descriptive import mean, median

    rng = np.random.default_rng(9)
    sample = rng.normal(4.0, 0.25, 124).tolist()

    def scalar() -> None:
        # The pre-kernel code path: a callable statistic keeps the
        # original per-resample loop — what every caller paid before.
        bootstrap_ci(sample, mean, n_resamples=n_resamples, seed=3)

    def vectorized() -> None:
        with kernels.use_backend("numpy"):
            bootstrap_ci(sample, "mean", n_resamples=n_resamples, seed=3)

    def median_scalar() -> None:
        # The callable keeps the loop: one full sort per resample.
        bootstrap_ci(sample, median, n_resamples=n_resamples, seed=3)

    def median_vectorized() -> None:
        # The named statistic rides the (B, n) matrix with one
        # np.partition per block — selection, not B sorts.
        with kernels.use_backend("numpy"):
            bootstrap_ci(sample, "median", n_resamples=n_resamples, seed=3)

    scalar_s = median_seconds(scalar, repeats)
    vector_s = median_seconds(vectorized, repeats)
    median_scalar_s = median_seconds(median_scalar, repeats)
    median_vector_s = median_seconds(median_vectorized, repeats)
    return {
        "bootstrap_n_resamples": n_resamples,
        "bootstrap_scalar_s": scalar_s,
        "bootstrap_vector_s": vector_s,
        "bootstrap_speedup": scalar_s / vector_s,
        "bootstrap_median_scalar_s": median_scalar_s,
        "bootstrap_median_vector_s": median_vector_s,
        "bootstrap_median_speedup": median_scalar_s / median_vector_s,
    }


def measure(quick: bool = False) -> dict[str, Any]:
    """Run every kernel benchmark and return the raw point.

    ``quick`` shrinks repeats and sizes for the CI smoke step — the
    speedup *ratios* shrink too (less work to amortize), so the gate on
    a quick run is only "the fast path is not slower".
    """
    repeats = 3 if quick else 7
    point: dict[str, Any] = {
        "sweep": [list(condition) for condition in SWEEP],
    }
    point.update(_bench_lcs(repeats))
    point.update(_bench_dispatch(max(1, repeats // 2), chunk=16))
    point.update(_bench_stencil(
        repeats, cells=512 if quick else 2048, steps=50 if quick else 200
    ))
    point.update(_bench_bootstrap(repeats, n_resamples=500 if quick else 2000))
    return point
