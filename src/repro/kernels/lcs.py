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

Every score is an exact integer, equal to the scalar oracle's
(property-tested in ``tests/test_kernels.py``).
"""

from __future__ import annotations

import functools
from typing import Sequence

__all__ = [
    "lcs_score_python",
    "lcs_scores_python",
    "lcs_score_bitparallel",
    "lcs_scores_bitparallel",
]


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
