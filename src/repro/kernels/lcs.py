"""Longest-common-subsequence kernels.

The scalar DP in :mod:`repro.drugdesign.scoring` walks the O(m·n) table
one cell at a time.  The in-process kernel here is the bit-parallel LCS
of Allison & Dix (1986) in Hyyrö's (2004) form: one row of the table is
a single Python integer ``V`` over ``len(protein)`` bits, and one ligand
character advances the whole row in a handful of big-int operations::

    U = V & M[c]
    V = ((V + U) | (V - U)) & full

where bit i of ``M[c]`` is set where ``protein[i] == c`` and ``V``
starts all ones.  The score is the number of zero bits left in ``V``.
That is m big-int steps per ligand with no per-call array setup, which
at Assignment-5 sizes (m ≤ 7, protein ~150) beats a NumPy row DP by
more than 10x per ligand and a padded batch DP several times over.
The match masks depend only on the protein, so they are built once per
protein and cached.  Characters are compared as characters, never as
encoded bytes.

:func:`lcs_scores_codes_numpy` is the NumPy matrix DP the ``mp``
backend runs in its pool children (:mod:`repro.kernels.mp`): it
advances L ligands together, one (L, n+1) row per step, on int32 code
point matrices from :func:`encode_ligands` and :func:`encode_protein`.
Ligands are padded with -1, which matches no code point; because LCS
rows are non-decreasing in j, a no-match step is the identity, so short
ligands coast while longer ones finish.

Every score is an exact integer, equal to the scalar oracle's
(property-tested in ``tests/test_kernels.py``).
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

__all__ = [
    "lcs_score_python",
    "lcs_scores_python",
    "lcs_score_bitparallel",
    "lcs_scores_bitparallel",
    "lcs_scores_codes_numpy",
    "encode_protein",
    "encode_ligands",
]


def encode_protein(protein: str) -> np.ndarray:
    """Protein as an int32 vector of code points."""
    return np.fromiter(map(ord, protein), dtype=np.int32, count=len(protein))


def encode_ligands(ligands: Sequence[str], max_m: int) -> np.ndarray:
    """Ligands as one (L, max_m) int32 code point matrix padded with -1.

    The pad matches no protein character, and a no-match DP step is the
    identity on a non-decreasing row, so rows padded to a *global*
    ``max_m`` simply coast, which is what lets the multiprocess backend
    slice this matrix into row shards without changing any score.
    """
    batch = np.full((len(ligands), max_m), -1, dtype=np.int32)
    for row, ligand in enumerate(ligands):
        batch[row, : len(ligand)] = list(map(ord, ligand))
    return batch


def lcs_score_python(ligand: str, protein: str) -> int:
    """Scalar oracle: :func:`repro.drugdesign.scoring.lcs_score`.

    Imported on call: the drug-design package loads the OpenMP and MPI
    runtimes, and every process-pool child imports :mod:`repro.kernels`
    when it starts.
    """
    from repro.drugdesign.scoring import lcs_score

    return lcs_score(ligand, protein)


def lcs_scores_python(ligands: Sequence[str], protein: str) -> list[int]:
    """Scalar oracle for the batched API: one DP per ligand."""
    return [lcs_score_python(ligand, protein) for ligand in ligands]


@functools.lru_cache(maxsize=16)
def _protein_masks(protein: str) -> tuple[dict[str, int], int]:
    """Per-character match masks of ``protein``, and its all-ones mask.

    Cached: the per-ligand callers score many ligands against one
    protein, and at protein length 143 one rebuild costs about ten
    times the kernel itself.  Every caller shares the returned dict, so
    it is read, never written.
    """
    masks: dict[str, int] = {}
    for i, ch in enumerate(protein):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    return masks, (1 << len(protein)) - 1


def lcs_score_bitparallel(ligand: str, protein: str) -> int:
    """LCS length by the bit-parallel row update: one step per ligand char."""
    masks, full = _protein_masks(protein)
    row = full
    for ch in ligand:
        matched = row & masks.get(ch, 0)
        row = ((row + matched) | (row - matched)) & full
    return len(protein) - row.bit_count()


def lcs_scores_bitparallel(ligands: Sequence[str], protein: str) -> list[int]:
    """Batched API over :func:`lcs_score_bitparallel` (masks built once)."""
    return [lcs_score_bitparallel(ligand, protein) for ligand in ligands]


def lcs_scores_codes_numpy(batch: np.ndarray, codes: np.ndarray) -> list[int]:
    """The matrix DP on pre-encoded inputs: (L, max_m) ligand codes
    against one protein code vector.

    Each step is ``cur[j] = max(prev[j], (prev[j-1] + 1)·eq, cur[j-1])``
    (exact, since adjacent LCS cells differ by at most 1); the in-row
    dependency is a running max, so one ``np.maximum.accumulate``
    advances all L rows.  Row-independent, so any row slice of
    ``batch`` yields exactly the scores of those ligands — the entry
    point the multiprocess backend calls per shard after shipping
    ``batch[lo:hi]`` through shared memory.
    """
    n = codes.size
    rows = batch.shape[0]
    previous = np.zeros((rows, n + 1), dtype=np.int32)
    current = np.zeros_like(previous)
    for k in range(batch.shape[1]):
        column = batch[:, k : k + 1]
        candidate = np.where(codes[None, :] == column, previous[:, :-1] + 1, 0)
        np.maximum.accumulate(
            np.maximum(previous[:, 1:], candidate), axis=1, out=current[:, 1:]
        )
        previous, current = current, previous
    return [int(score) for score in previous[:, n]]
