"""``repro.kernels`` — fast paths for every hot loop.

The compute heart of the reproduction is three scalar Python loops: the
O(m·n) LCS dynamic program behind Assignment-5 ligand scoring, the
per-cell heat update behind the MPI stencil, and the per-resample loop
behind the bootstrap CIs.  Each has a fast kernel, and callers go
through one **backend registry**:

- ``numpy`` (default) — the in-process fast kernels: the bit-parallel
  LCS in :mod:`~repro.kernels.lcs` and the NumPy kernels in
  :mod:`~repro.kernels.stencil` and :mod:`~repro.kernels.resample`;
- ``python`` — the original scalar implementations, kept verbatim as
  the correctness oracle the property tests compare against
  (bit-identical integers and floats, not approximately equal).

Work that should escape the GIL goes through the scheduler's process
pool (``WorkStealingExecutor(mode="mp")``), not through a kernel backend.

Selection follows the repo-wide knob rule (:mod:`repro.config`): an
explicit :func:`set_backend` / :func:`use_backend` wins, else the
``REPRO_KERNELS`` environment variable, else ``numpy``.  Every dispatch
emits a telemetry span tagged with the backend that actually ran, so a
Chrome trace shows exactly where a speedup (or a fallback) came from.

Usage::

    from repro import kernels

    kernels.lcs_scores(ligands, protein)        # batched fast path
    with kernels.use_backend("python"):
        kernels.lcs_scores(ligands, protein)    # scalar oracle
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Sequence

from repro.config import KERNEL_BACKENDS, resolve_kernels_backend
from repro.kernels import lcs as _lcs
from repro.kernels import resample
from repro.kernels import stencil as _stencil
from repro.telemetry import instrument as telemetry

__all__ = [
    "KERNEL_BACKENDS",
    "backend",
    "set_backend",
    "use_backend",
    "lcs_score",
    "lcs_scores",
    "heat_steps",
    "heat_block_step",
    "bootstrap_estimates",
    "paired_bootstrap_estimates",
    "resample",
]

#: Process-wide override; ``None`` defers to ``$REPRO_KERNELS``.
_BACKEND: str | None = None


def backend() -> str:
    """The backend the next kernel call will use."""
    return resolve_kernels_backend(_BACKEND)


def set_backend(name: str | None) -> None:
    """Set (or with ``None`` clear) the process-wide backend override."""
    global _BACKEND
    _BACKEND = None if name is None else resolve_kernels_backend(name)


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Temporarily pin the backend (the property tests' lever)."""
    global _BACKEND
    previous = _BACKEND
    _BACKEND = resolve_kernels_backend(name)
    try:
        yield _BACKEND
    finally:
        _BACKEND = previous


def lcs_score(ligand: str, protein: str) -> int:
    """LCS length of one ligand against the protein, on the active backend."""
    chosen = backend()
    with telemetry.span("kernel.lcs", category="kernel", backend=chosen,
                        m=len(ligand), n=len(protein)):
        if chosen == "python":
            return _lcs.lcs_score_python(ligand, protein)
        return _lcs.lcs_score_bitparallel(ligand, protein)


def lcs_scores(ligands: Sequence[str], protein: str) -> list[int]:
    """Batched ligand scoring: the protein's match masks are built once."""
    chosen = backend()
    with telemetry.span("kernel.lcs_batch", category="kernel", backend=chosen,
                        batch=len(ligands), n=len(protein)):
        if chosen == "numpy":
            scores = _lcs.lcs_scores_bitparallel(ligands, protein)
        else:
            scores = _lcs.lcs_scores_python(ligands, protein)
    telemetry.inc("kernel.lcs.ligands", len(ligands))
    return scores


def heat_steps(u0: Sequence[float], alpha: float, steps: int) -> list[float]:
    """Advance a whole rod ``steps`` diffusion steps (fixed boundaries)."""
    chosen = backend()
    with telemetry.span("kernel.stencil", category="kernel", backend=chosen,
                        cells=len(u0), steps=steps):
        if chosen == "numpy":
            return _stencil.heat_steps_numpy(u0, alpha, steps)
        return _stencil.heat_steps_python(u0, alpha, steps)


def heat_block_step(
    block: Sequence[float],
    ghost_left: float | None,
    ghost_right: float | None,
    alpha: float,
    start: int,
    n: int,
) -> list[float]:
    """Advance one rank's block a single step given its ghost cells."""
    chosen = backend()
    with telemetry.span("kernel.stencil_block", category="kernel",
                        backend=chosen, cells=len(block), start=start):
        if chosen == "python":
            return _stencil.heat_block_step_python(
                block, ghost_left, ghost_right, alpha, start, n
            )
        return _stencil.heat_block_step_numpy(
            block, ghost_left, ghost_right, alpha, start, n
        )


def bootstrap_estimates(data, name: str, n_resamples: int, seed: int):
    """B bootstrap estimates of a named statistic, on the active backend."""
    chosen = backend()
    with telemetry.span("kernel.bootstrap", category="kernel", backend=chosen,
                        statistic=name, n_resamples=n_resamples, n=data.size):
        if chosen == "python":
            return resample.bootstrap_estimates_python(
                data, name, n_resamples, seed
            )
        return resample.bootstrap_estimates_numpy(data, name, n_resamples, seed)


def paired_bootstrap_estimates(a, b, name: str, n_resamples: int, seed: int):
    """B paired bootstrap estimates of a named statistic."""
    chosen = backend()
    with telemetry.span("kernel.bootstrap_paired", category="kernel",
                        backend=chosen, statistic=name,
                        n_resamples=n_resamples, n=a.size):
        if chosen == "python":
            return resample.paired_bootstrap_estimates_python(
                a, b, name, n_resamples, seed
            )
        return resample.paired_bootstrap_estimates_numpy(
            a, b, name, n_resamples, seed
        )
