"""Multiprocess kernel shards: the ``mp`` backend's two fast paths.

``REPRO_KERNELS=mp`` escapes the GIL for the two kernels whose work
decomposes into independent array blocks:

- **batched LCS** — the parent pre-encodes the *global* (L, max_m)
  ligand code point matrix (padding to the global ``max_m`` is
  score-neutral: pad code -1 matches nothing and a no-match DP step is
  the identity), ships contiguous row shards to a persistent pool via
  shared memory, and concatenates per-shard scores in shard order.
  Row DPs are independent, so the result is bit-identical to one
  in-process :func:`~repro.kernels.lcs.lcs_scores_codes_numpy` over
  the whole matrix.
- **heat stencil** — two shared-memory buffers hold the rod; each
  worker owns a contiguous interior block and advances it with the
  *same* slice expression as :func:`~repro.kernels.stencil.
  heat_steps_numpy`, double-buffering with one barrier per step (all
  step-k writes land before any step-k+1 read).  The update is
  elementwise in the previous state, so the block decomposition is
  bit-identical to the full-array slice — the DESIGN shared-memory rule
  in action.

Everything else (single-ligand LCS, block steps, bootstrap resampling)
falls back to the in-process ``numpy``-backend kernels: single calls
are too small to amortise a hop, and sharding the bootstrap would split
its single PCG64 stream and change the draws.  Small inputs take the
same fallback (:data:`MIN_MP_LIGANDS` / :data:`MIN_MP_CELLS`) —
shipping must never make a call slower than running it here.
"""

from __future__ import annotations

import atexit
import multiprocessing
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from repro.config import resolve_mp_start_method, resolve_mp_workers
from repro.kernels import lcs as _lcs
from repro.kernels import stencil as _stencil
from repro.sched.core import Call

__all__ = [
    "MIN_MP_LIGANDS",
    "MIN_MP_CELLS",
    "lcs_scores_mp",
    "heat_steps_mp",
    "close_pool",
]

#: Below these sizes the in-process kernel runs instead — the
#: cross-process hop costs more than it saves.  Deliberately small so
#: the test suite exercises the real transport on modest inputs.
MIN_MP_LIGANDS = 8
MIN_MP_CELLS = 64

_POOL = None


def _pool():
    """The lazily-created module pool shared by every mp kernel call."""
    global _POOL
    if _POOL is None:
        from repro.procpool import ProcessPool

        _POOL = ProcessPool(resolve_mp_workers())
        atexit.register(close_pool)
    return _POOL


def close_pool() -> None:
    """Tear down the module pool (idempotent; re-creates on next use)."""
    global _POOL
    if _POOL is not None:
        _POOL.close()
        _POOL = None


def _lcs_shard(batch: np.ndarray, codes: np.ndarray) -> list[int]:
    """Pool-child entry point: the matrix DP over one row shard."""
    return _lcs.lcs_scores_codes_numpy(batch, codes)


def lcs_scores_mp(ligands: Sequence[str], protein: str) -> list[int]:
    """Batched LCS scores, row-sharded across the process pool."""
    if not ligands:
        return []
    if not protein:
        return [0] * len(ligands)
    pool = None if len(ligands) < MIN_MP_LIGANDS else _pool()
    if pool is None or pool.n_workers < 2:
        return _lcs.lcs_scores_bitparallel(ligands, protein)
    codes = _lcs.encode_protein(protein)
    max_m = max(len(ligand) for ligand in ligands)
    if max_m == 0:
        return [0] * len(ligands)
    batch = _lcs.encode_ligands(ligands, max_m)
    shards = min(pool.n_workers, len(ligands))
    bounds = [round(i * len(ligands) / shards) for i in range(shards + 1)]
    calls = [
        Call(_lcs_shard, batch[lo:hi], codes)
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    scores: list[int] = []
    for shard_scores in pool.scatter(calls):
        scores.extend(shard_scores)
    return scores


def _stencil_block_worker(
    name_a: str, name_b: str, n: int, lo: int, hi: int,
    alpha: float, steps: int, barrier,
) -> None:
    """Advance one contiguous interior block ``[lo, hi)`` for ``steps``.

    Reads one ghost cell either side of the block from the source
    buffer, writes the block into the destination buffer, then waits on
    the barrier before the buffers swap roles — the halo-exchange
    pattern of ``heat_mpi``, with shared memory standing in for
    messages.
    """
    shm_a = shared_memory.SharedMemory(name=name_a)
    shm_b = shared_memory.SharedMemory(name=name_b)
    try:
        buf_a = np.ndarray((n,), dtype=np.float64, buffer=shm_a.buf)
        buf_b = np.ndarray((n,), dtype=np.float64, buffer=shm_b.buf)
        src, dst = buf_a, buf_b
        for _ in range(steps):
            seg = src[lo - 1 : hi + 1]
            dst[lo:hi] = seg[1:-1] + alpha * (
                seg[:-2] - 2.0 * seg[1:-1] + seg[2:]
            )
            barrier.wait()
            src, dst = dst, src
    finally:
        shm_a.close()
        shm_b.close()


def heat_steps_mp(
    u0: Sequence[float], alpha: float, steps: int,
    n_workers: int | None = None,
) -> list[float]:
    """Advance a whole rod with the interior split across processes."""
    u = np.asarray(u0, dtype=np.float64)
    n = u.size
    interior = n - 2
    workers = resolve_mp_workers(n_workers)
    if (steps == 0 or interior < max(workers, MIN_MP_CELLS)
            or workers < 2):
        return _stencil.heat_steps_numpy(u0, alpha, steps)
    context = multiprocessing.get_context(resolve_mp_start_method())
    shm_a = shared_memory.SharedMemory(create=True, size=n * 8)
    shm_b = shared_memory.SharedMemory(create=True, size=n * 8)
    try:
        buf_a = np.ndarray((n,), dtype=np.float64, buffer=shm_a.buf)
        buf_b = np.ndarray((n,), dtype=np.float64, buffer=shm_b.buf)
        buf_a[:] = u
        buf_b[0] = u[0]          # Dirichlet boundaries never change, so
        buf_b[-1] = u[-1]        # both buffers carry them from step 0
        barrier = context.Barrier(workers)
        bounds = [1 + round(i * interior / workers)
                  for i in range(workers + 1)]
        processes = [
            context.Process(
                target=_stencil_block_worker,
                args=(shm_a.name, shm_b.name, n, lo, hi,
                      float(alpha), steps, barrier),
                daemon=True,
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60.0)
        bad = [p for p in processes if p.is_alive() or p.exitcode != 0]
        if bad:
            for process in bad:
                if process.is_alive():
                    process.terminate()
            raise RuntimeError(
                f"{len(bad)} stencil worker(s) failed "
                f"(exitcodes {[p.exitcode for p in processes]})"
            )
        final = buf_a if steps % 2 == 0 else buf_b
        return final.copy().tolist()
    finally:
        shm_a.close()
        shm_b.close()
        shm_a.unlink()
        shm_b.unlink()
