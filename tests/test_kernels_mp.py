"""The mp kernel backend and the vectorized median: bit-identity.

Sharding work across processes must not change a single bit: the mp
LCS kernel concatenates row shards of one padded matrix DP, and the mp
stencil double-buffers the same slice expression over shared memory —
so both must equal the scalar oracles exactly, like every other
backend.

The ``median`` bootstrap statistic carries its own bit-identity
argument: ``np.quantile(..., 0.5)`` interpolates with
``b - (b - a) * 0.5``, which differs from the oracle's
``0.5 * (a + b)`` in IEEE-754, so the kernel uses ``np.partition``
(pure selection) plus the oracle's exact midpoint expression.  The
counterexample is pinned here so nobody "simplifies" it back.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.drugdesign.ligands import DEFAULT_PROTEIN, generate_ligands
from repro.kernels import lcs as lcs_kernels
from repro.kernels import mp as mp_kernels
from repro.kernels import resample
from repro.kernels import stencil as stencil_kernels
from repro.stats.bootstrap import bootstrap_ci
from repro.stats.descriptive import median as median_oracle

_TEXT = st.text(alphabet="abcdxyz\x00éè日本語", max_size=12)


# -- batched LCS across processes ---------------------------------------------


@settings(max_examples=10, deadline=None)
@given(ligands=st.lists(_TEXT, max_size=12), protein=_TEXT)
def test_lcs_mp_equals_scalar(ligands, protein):
    assert mp_kernels.lcs_scores_mp(ligands, protein) == [
        lcs_kernels.lcs_score_python(lig, protein) for lig in ligands
    ]


def test_lcs_mp_sweep_matches_numpy_kernel():
    ligands = generate_ligands(60, 7, seed=500)
    with kernels.use_backend("numpy"):
        in_process = kernels.lcs_scores(ligands, DEFAULT_PROTEIN)
    assert mp_kernels.lcs_scores_mp(ligands, DEFAULT_PROTEIN) == in_process
    assert in_process == lcs_kernels.lcs_scores_bitparallel(
        ligands, DEFAULT_PROTEIN
    )


def test_lcs_mp_edge_cases():
    assert mp_kernels.lcs_scores_mp([], "abc") == []
    assert mp_kernels.lcs_scores_mp(["abc"], "") == [0]
    assert mp_kernels.lcs_scores_mp(["", ""], "abc") == [0, 0]


def test_lcs_row_shards_concatenate_to_the_full_batch():
    """The property the mp kernel rides: global-max_m padded rows are
    independent, so any contiguous shard scores identically."""
    ligands = generate_ligands(30, 7, seed=7)
    max_m = max(len(lig) for lig in ligands)
    batch, codes = (
        lcs_kernels.encode_ligands(ligands, max_m),
        lcs_kernels.encode_protein(DEFAULT_PROTEIN),
    )
    whole = lcs_kernels.lcs_scores_codes_numpy(batch, codes)
    parts: list[int] = []
    for lo, hi in ((0, 11), (11, 23), (23, 30)):
        parts.extend(lcs_kernels.lcs_scores_codes_numpy(batch[lo:hi], codes))
    assert parts == whole == lcs_kernels.lcs_scores_bitparallel(
        ligands, DEFAULT_PROTEIN
    )


def test_kernels_dispatch_routes_mp_backend():
    ligands = generate_ligands(24, 6, seed=3)
    with kernels.use_backend("python"):
        oracle = kernels.lcs_scores(ligands, DEFAULT_PROTEIN)
    with kernels.use_backend("mp"):
        assert kernels.lcs_scores(ligands, DEFAULT_PROTEIN) == oracle


# -- shared-memory stencil ----------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    cells=st.integers(min_value=1, max_value=300),
    steps=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=99),
)
def test_heat_steps_mp_bit_identical(cells, steps, seed):
    rng = np.random.default_rng(seed)
    u0 = rng.uniform(-50.0, 150.0, cells).tolist()
    assert mp_kernels.heat_steps_mp(u0, 0.25, steps) == (
        stencil_kernels.heat_steps_python(u0, 0.25, steps)
    )


def test_heat_steps_mp_large_rod_shards_across_workers():
    rng = np.random.default_rng(11)
    u0 = rng.uniform(0.0, 100.0, 4 * mp_kernels.MIN_MP_CELLS).tolist()
    assert mp_kernels.heat_steps_mp(u0, 0.25, 9, n_workers=3) == (
        stencil_kernels.heat_steps_numpy(u0, 0.25, 9)
    )


def test_heat_steps_mp_small_inputs_fall_back_in_process():
    # Below MIN_MP_CELLS no child process is worth forking; the result
    # must still be the oracle's, and zero steps must be the identity.
    u0 = [1.0, 2.0, 3.0, 4.0]
    assert mp_kernels.heat_steps_mp(u0, 0.25, 3) == (
        stencil_kernels.heat_steps_python(u0, 0.25, 3)
    )
    assert mp_kernels.heat_steps_mp(u0, 0.25, 0) == u0


def test_kernels_dispatch_routes_mp_stencil():
    rng = np.random.default_rng(13)
    u0 = rng.uniform(0.0, 100.0, 200).tolist()
    with kernels.use_backend("mp"):
        fast = kernels.heat_steps(u0, 0.25, 5)
    assert fast == stencil_kernels.heat_steps_python(u0, 0.25, 5)


# -- vectorized median --------------------------------------------------------


def test_np_quantile_is_not_the_oracle_median():
    """The counterexample that forbids np.quantile here: lerp vs the
    oracle's halved sum differ in the last ulp."""
    pair = np.array([[-1.0, 1.0000000000000002]])
    quantile = float(np.quantile(pair[0], 0.5))
    oracle = median_oracle(pair[0].tolist())
    kernel = float(resample._rows_median(pair)[0])
    assert quantile != oracle            # 2.22e-16 vs 1.11e-16
    assert kernel == oracle


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=25,
    )
)
def test_rows_median_bit_identical_to_descriptive_median(values):
    matrix = np.asarray([values], dtype=np.float64)
    assert float(resample._rows_median(matrix)[0]) == median_oracle(values)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_median_bootstrap_estimates_bit_identical(seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(4.0, 0.3, 23)
    fast = resample.bootstrap_estimates_numpy(data, "median", 60, seed)
    slow = resample.bootstrap_estimates_python(data, "median", 60, seed)
    assert fast.tolist() == slow.tolist()


def test_median_ci_named_equals_callable_loop():
    rng = np.random.default_rng(17)
    xs = rng.normal(3.0, 0.4, 31).tolist()
    named = bootstrap_ci(xs, "median", n_resamples=200, seed=5)
    looped = bootstrap_ci(xs, median_oracle, n_resamples=200, seed=5)
    assert (named.estimate, named.low, named.high) == (
        looped.estimate, looped.low, looped.high
    )
