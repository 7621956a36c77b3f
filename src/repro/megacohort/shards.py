"""Shard planning and per-shard generation for the mega-cohort.

A run over N students is split into contiguous shards; each shard draws
its rows from its **own** PCG64 stream, so a shard is regenerable from
``(seed, shard_index)`` alone — the property the chaos scenario leans
on (a crashed shard retries from its own seed and the merged tables
come out byte-identical) and the property that makes the merge
order-independent (no stream is shared across shards).

Seed rule:

- shard 0 uses ``np.random.default_rng(seed)`` — exactly the stream the
  N=124 :class:`~repro.simulation.model.ResponseModel` uses, so a
  single-shard run reproduces the monolithic model's draws bit for bit
  (the identity anchor);
- shard ``i > 0`` uses the independent child stream
  ``SeedSequence(entropy=seed, spawn_key=(i,))``.

:func:`shard_stats_task` is the executor task body: module-level (so
``mode="mp"`` can pickle it) and a :mod:`repro.faults` injection site
(``megacohort.shard``) fired *before* the work, so an injected crash
costs nothing but a retry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.faults import hooks as faults
from repro.core.analysis import SurveyStats
from repro.simulation.model import (
    ITEM_NOISE,
    LIKERT_DTYPE,
    ModelKnobs,
    items_from_trait,
    trait_offset,
)

__all__ = [
    "DEFAULT_SHARD_ROWS",
    "FAULT_SITE",
    "NOISE_BLOCK_ROWS",
    "ShardSpec",
    "plan_shards",
    "shard_rng",
    "shard_scores",
    "shard_stats",
    "shard_stats_task",
]

#: Default shard granularity.  A shard holds its trait draws and offset
#: whole but draws and scores its item noise in
#: :data:`NOISE_BLOCK_ROWS`-row blocks, so its traced peak is ~1.25 KB
#: per row, ~20 MiB at this size — large enough that NumPy dominates
#: the task, small enough that workers-many shards in flight stay far
#: below the full-tensor cost.
DEFAULT_SHARD_ROWS = 16384

#: Rows of item noise a shard draws and scores at a time: one reused
#: float64 buffer of ~1.1 MiB (at 7 skills and 5 items) that stays in
#: cache, in place of two float64 tensors of the whole shard's items.
NOISE_BLOCK_ROWS = 1024

#: Fault-injection site fired once per shard-task attempt.
FAULT_SITE = "megacohort.shard"


@dataclass(frozen=True)
class ShardSpec:
    """One shard: its canonical index and row count."""

    index: int
    rows: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"shard index must be >= 0, got {self.index}")
        if self.rows < 1:
            raise ValueError(f"shard rows must be >= 1, got {self.rows}")


def plan_shards(n: int, shards: int | None = None) -> tuple[ShardSpec, ...]:
    """Balanced contiguous shard plan for ``n`` rows.

    ``shards=None`` (or 0) sizes the plan at :data:`DEFAULT_SHARD_ROWS`
    rows per shard; an explicit count is clamped to ``n`` so every
    shard has at least one row.  Row counts differ by at most one.
    """
    if n < 1:
        raise ValueError(f"need at least 1 row, got {n}")
    if shards is None or shards == 0:
        shards = math.ceil(n / DEFAULT_SHARD_ROWS)
    if shards < 0:
        raise ValueError(f"shard count must be >= 0, got {shards}")
    shards = min(shards, n)
    base, rem = divmod(n, shards)
    return tuple(
        ShardSpec(index=i, rows=base + (1 if i < rem else 0))
        for i in range(shards)
    )


def shard_rng(seed: int, index: int) -> np.random.Generator:
    """The shard's own PCG64 stream (see the module docstring's seed rule)."""
    if index == 0:
        return np.random.default_rng(seed)
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    )


def shard_scores(
    spec: ShardSpec,
    knobs: ModelKnobs,
    k: int,
    items_per_skill: int,
    seed: int,
) -> np.ndarray:
    """Raw item scores (rows, K, 2, 2, items) for one shard.

    Pure function of ``(spec, knobs, k, items_per_skill, seed)`` — the
    regeneration guarantee behind retry-based fault recovery.

    Draws in the model's canonical order
    (:func:`~repro.simulation.model.draw_response_blocks`): the student
    factors and skill residuals whole, then the item noise in
    :data:`NOISE_BLOCK_ROWS`-row blocks into one reused buffer, each
    block scaled and scored before the next is drawn.
    ``Generator.standard_normal`` fills its output in C order and keeps
    no state between calls, so the blocks hold the same bits as one
    whole draw; every element sees the same operations in the same
    order, so the items equal the one-shot map's bit for bit.
    """
    rng = shard_rng(seed, spec.index)
    rows = spec.rows
    p_raw = rng.standard_normal((rows, 2, 2, 2))
    q_raw = rng.standard_normal((rows, k, 2, 2, 2))
    offset = trait_offset(knobs, p_raw, q_raw)
    shape = (k, 2, 2, items_per_skill)
    scores = np.empty((rows, *shape), dtype=LIKERT_DTYPE)
    buffer = np.empty((min(rows, NOISE_BLOCK_ROWS), *shape))
    for lo in range(0, rows, NOISE_BLOCK_ROWS):
        hi = min(lo + NOISE_BLOCK_ROWS, rows)
        noise = buffer[:hi - lo]
        rng.standard_normal(out=noise)
        np.multiply(noise, ITEM_NOISE, out=noise)
        scores[lo:hi] = items_from_trait(knobs.mu, offset[lo:hi], noise,
                                         out=noise)
    return scores


def shard_stats(
    spec: ShardSpec,
    knobs: ModelKnobs,
    skills: Sequence[str],
    items_per_skill: int,
    seed: int,
) -> SurveyStats:
    """One shard reduced to sufficient statistics (pure, no fault site)."""
    scores = shard_scores(spec, knobs, len(skills), items_per_skill, seed)
    return SurveyStats.from_scores(skills, scores)


def shard_stats_task(
    spec: ShardSpec,
    knobs: ModelKnobs,
    skills: tuple[str, ...],
    items_per_skill: int,
    seed: int,
) -> tuple[int, SurveyStats]:
    """Executor task body: ``(shard_index, statistics)``.

    Fires the :data:`FAULT_SITE` injection point before generating, so
    a planned crash/transient lands before any work is wasted; the
    executor's retry re-runs this body and the shard regenerates from
    its own seed.
    """
    faults.fire(FAULT_SITE, key=f"s{spec.index}",
                shard=spec.index, rows=spec.rows)
    return spec.index, shard_stats(spec, knobs, skills, items_per_skill, seed)
