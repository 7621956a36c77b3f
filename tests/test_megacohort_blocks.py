"""A shard's footprint: the item noise is drawn and scored in row blocks.

A shard never holds its float noise tensor whole, so its working set is
the trait arrays plus the int8 items, not two float64 copies of the
items' shape.  The blocks must not change a bit: the items equal the
one-shot map over :func:`draw_response_blocks`, and the shard's stream
ends where the one-shot draw leaves it (no draw skipped or added).
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.targets import simulation_targets
from repro.megacohort import shards
from repro.megacohort.shards import (
    DEFAULT_SHARD_ROWS,
    NOISE_BLOCK_ROWS,
    ShardSpec,
    shard_rng,
    shard_scores,
    shard_stats,
)
from repro.simulation.model import LIKERT_DTYPE, ModelKnobs, draw_response_blocks
from tests.test_simulation_memo import scores_from_blocks

TARGETS = simulation_targets()
KNOBS = ModelKnobs.initial(TARGETS)
K = len(TARGETS.skills)

#: Traced peak allowed for one default-size shard.  Drawing the noise
#: whole peaks at ~52 MiB (two float64 tensors of the items' shape,
#: ~17 MB each); in row blocks the peak is ~20 MiB.
SHARD_PEAK_BYTES = 24 * 2**20

#: Shard sizes on and around the block edges, and the study's N=124.
EDGE_ROWS = (1, 124, NOISE_BLOCK_ROWS - 1, NOISE_BLOCK_ROWS,
             NOISE_BLOCK_ROWS + 1, 2 * NOISE_BLOCK_ROWS + 3)


def _assert_blocked_equals_one_shot(rows, index, seed, items):
    drawn = []

    def recording_rng(*args):
        drawn.append(shard_rng(*args))
        return drawn[-1]

    with mock.patch.object(shards, "shard_rng", recording_rng):
        got = shard_scores(ShardSpec(index, rows), KNOBS, K, items, seed)
    rng = shard_rng(seed, index)
    want = scores_from_blocks(KNOBS, *draw_response_blocks(rng, rows, K, items))
    assert got.dtype == want.dtype == LIKERT_DTYPE
    assert got.shape == want.shape == (rows, K, 2, 2, items)
    assert got.tobytes() == want.tobytes()
    assert len(drawn) == 1
    assert drawn[0].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("rows", EDGE_ROWS)
@pytest.mark.parametrize("index", [0, 1, 7])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=2018)
def test_blocked_shard_equals_one_shot_map_at_block_edges(rows, index, seed):
    _assert_blocked_equals_one_shot(rows, index, seed, 5)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 4 * NOISE_BLOCK_ROWS),
    index=st.sampled_from([0, 1, 7]),
    seed=st.sampled_from([0, 45, 2018]) | st.integers(0, 2**32 - 1),
    items=st.sampled_from([2, 3, 5]),
)
def test_blocked_shard_equals_one_shot_map(rows, index, seed, items):
    _assert_blocked_equals_one_shot(rows, index, seed, items)


def test_default_shard_peak_stays_under_the_bound():
    spec = ShardSpec(index=3, rows=DEFAULT_SHARD_ROWS)
    shard_stats(ShardSpec(index=3, rows=64), KNOBS, TARGETS.skills, 5, 2018)
    tracemalloc.start()
    try:
        shard_stats(spec, KNOBS, TARGETS.skills, 5, 2018)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= SHARD_PEAK_BYTES, f"{peak / 2**20:.1f} MiB"
