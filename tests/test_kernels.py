"""Property tests for repro.kernels: vectorized == scalar, bit for bit.

The contract the package makes is stronger than "approximately equal":
every fast kernel must return *exactly* what the scalar oracle returns
— identical integers for LCS, identical IEEE-754 doubles for the
stencil and the bootstrap.  Hypothesis drives random strings, grids,
and seeds through both backends and asserts ``==``, never
``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, telemetry
from repro.config import resolve_kernels_backend
from repro.drugdesign.ligands import DEFAULT_PROTEIN, generate_ligands
from repro.kernels import lcs as lcs_kernels
from repro.kernels import resample
from repro.kernels import stencil as stencil_kernels
from repro.stats.bootstrap import bootstrap_ci, bootstrap_paired_ci
from repro.stats.descriptive import median as median_oracle

#: Non-ASCII characters and NUL included: the kernels compare characters,
#: never encoded bytes.
_TEXT = st.text(alphabet="abcdxyz\x00éè日本語", max_size=12)


# -- LCS: bit-parallel and batched vs the scalar DP --------------------------


@settings(max_examples=60, deadline=None)
@given(ligand=_TEXT, protein=_TEXT)
def test_lcs_numpy_equals_scalar(ligand, protein):
    # ``numpy`` names the default in-process backend; its LCS is the
    # bit-parallel kernel, checked directly and through the dispatch.
    oracle = lcs_kernels.lcs_score_python(ligand, protein)
    assert lcs_kernels.lcs_score_bitparallel(ligand, protein) == oracle
    with kernels.use_backend("numpy"):
        assert kernels.lcs_score(ligand, protein) == oracle


@settings(max_examples=30, deadline=None)
@given(ligands=st.lists(_TEXT, max_size=8), protein=_TEXT)
def test_lcs_batched_equals_per_string(ligands, protein):
    oracle = [lcs_kernels.lcs_score_python(lig, protein) for lig in ligands]
    assert lcs_kernels.lcs_scores_bitparallel(ligands, protein) == oracle


def test_lcs_edge_cases():
    assert lcs_kernels.lcs_score_bitparallel("", "abc") == 0
    assert lcs_kernels.lcs_score_bitparallel("abc", "") == 0
    assert lcs_kernels.lcs_score_bitparallel("", "") == 0
    assert lcs_kernels.lcs_scores_bitparallel([], "abc") == []
    assert lcs_kernels.lcs_scores_bitparallel(["", "a", "abcabc"], "abc") == [
        0, 1, 3
    ]


@pytest.mark.parametrize("ligands, protein, expected", [
    (["é"], "è", [0]),                 # é and è share a UTF-8 lead byte
    (["é"], "é", [1]),                 # 1 character, 2 UTF-8 bytes
    (["日本"], "日本語", [2]),          # 2 characters, 6 UTF-8 bytes
    (["", "\x00"], "a\x00", [0, 1]),  # NUL is a character like any other
    (["a", "\x00é"], "\x00aé", [1, 2]),
])
def test_lcs_compares_characters_not_bytes(ligands, protein, expected):
    assert lcs_kernels.lcs_scores_bitparallel(ligands, protein) == expected
    assert [lcs_kernels.lcs_score_bitparallel(lig, protein)
            for lig in ligands] == expected
    assert lcs_kernels.lcs_scores_python(ligands, protein) == expected


def test_lcs_masks_are_built_once_per_protein():
    ligands = generate_ligands(40, 7, seed=11)
    lcs_kernels._protein_masks.cache_clear()
    with kernels.use_backend("numpy"):
        for ligand in ligands:
            kernels.lcs_score(ligand, DEFAULT_PROTEIN)
        kernels.lcs_scores(ligands, DEFAULT_PROTEIN)
    info = lcs_kernels._protein_masks.cache_info()
    assert (info.misses, info.hits) == (1, 2 * len(ligands) - 1)


def test_lcs_assignment5_sweep_matches_oracle():
    for max_ligand in (5, 7):
        ligands = generate_ligands(60, max_ligand, seed=500)
        oracle = [
            lcs_kernels.lcs_score_python(lig, DEFAULT_PROTEIN)
            for lig in ligands
        ]
        assert lcs_kernels.lcs_scores_bitparallel(
            ligands, DEFAULT_PROTEIN) == oracle


# -- stencil: slice arithmetic vs the per-cell loop --------------------------


@settings(max_examples=30, deadline=None)
@given(
    cells=st.integers(min_value=1, max_value=40),
    steps=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=999),
)
def test_heat_steps_bit_identical(cells, steps, seed):
    rng = np.random.default_rng(seed)
    u0 = rng.uniform(-50.0, 150.0, cells).tolist()
    assert stencil_kernels.heat_steps_numpy(u0, 0.25, steps) == (
        stencil_kernels.heat_steps_python(u0, 0.25, steps)
    )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    split=st.integers(min_value=1, max_value=23),
    seed=st.integers(min_value=0, max_value=999),
)
def test_heat_block_step_bit_identical(n, split, seed):
    split = min(split, n - 1)
    rng = np.random.default_rng(seed)
    rod = rng.uniform(0.0, 100.0, n).tolist()
    for start, stop in ((0, split), (split, n)):
        block = rod[start:stop]
        ghost_left = rod[start - 1] if start > 0 else None
        ghost_right = rod[stop] if stop < n else None
        assert stencil_kernels.heat_block_step_numpy(
            block, ghost_left, ghost_right, 0.25, start, n
        ) == stencil_kernels.heat_block_step_python(
            block, ghost_left, ghost_right, 0.25, start, n
        )


# -- bootstrap: (B, n) matrix vs the per-resample loop -----------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    name=st.sampled_from(resample.STATISTICS),
)
def test_bootstrap_estimates_bit_identical(seed, name):
    rng = np.random.default_rng(seed)
    data = rng.normal(4.0, 0.3, 23)
    fast = kernels.bootstrap_estimates(data, name, 50, seed)
    slow = resample.bootstrap_estimates_python(data, name, 50, seed)
    assert fast.tolist() == slow.tolist()


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    name=st.sampled_from(resample.PAIRED_STATISTICS),
)
def test_paired_bootstrap_estimates_bit_identical(seed, name):
    rng = np.random.default_rng(seed)
    a = rng.normal(3.5, 0.4, 19)
    b = a + rng.normal(0.3, 0.2, 19)
    fast = kernels.paired_bootstrap_estimates(a, b, name, 50, seed)
    slow = resample.paired_bootstrap_estimates_python(a, b, name, 50, seed)
    assert fast.tolist() == slow.tolist()


@pytest.mark.parametrize("name", resample.STATISTICS)
def test_bootstrap_ci_backends_bit_identical(name):
    rng = np.random.default_rng(11)
    xs = rng.normal(4.0, 0.25, 31).tolist()
    with kernels.use_backend("numpy"):
        fast = bootstrap_ci(xs, name, n_resamples=200, seed=3)
    with kernels.use_backend("python"):
        slow = bootstrap_ci(xs, name, n_resamples=200, seed=3)
    assert (fast.estimate, fast.low, fast.high) == (
        slow.estimate, slow.low, slow.high
    )


@pytest.mark.parametrize("name", resample.PAIRED_STATISTICS)
def test_bootstrap_paired_ci_backends_bit_identical(name):
    rng = np.random.default_rng(12)
    xs = rng.normal(3.4, 0.3, 27).tolist()
    ys = (np.asarray(xs) + rng.normal(0.4, 0.2, 27)).tolist()
    with kernels.use_backend("numpy"):
        fast = bootstrap_paired_ci(xs, ys, name, n_resamples=200, seed=5)
    with kernels.use_backend("python"):
        slow = bootstrap_paired_ci(xs, ys, name, n_resamples=200, seed=5)
    assert (fast.estimate, fast.low, fast.high) == (
        slow.estimate, slow.low, slow.high
    )


def test_bootstrap_ci_callable_statistic_still_works():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    named = bootstrap_ci(xs, "mean", n_resamples=100, seed=7)
    custom = bootstrap_ci(
        xs, lambda s: sum(s) / len(s), n_resamples=100, seed=7
    )
    # A callable falls back to the loop; same RNG draws, same floats.
    assert custom.estimate == pytest.approx(named.estimate)
    assert (custom.low, custom.high) == (named.low, named.high)


def test_resolve_statistic_names_and_rejects_unknown():
    assert resample.resolve_statistic("mean") == "mean"
    assert resample.resolve_statistic(np.mean) == "mean"
    assert resample.resolve_statistic("median") == "median"
    assert resample.resolve_statistic(np.median) == "median"
    assert resample.resolve_statistic(lambda xs: 0.0) is None
    with pytest.raises(ValueError):
        resample.resolve_statistic("mode")
    with pytest.raises(ValueError):
        resample.resolve_paired_statistic("slope")


def test_pearson_r_is_clipped():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    value = resample.paired_statistic_value(a, 2.0 * a, "pearson_r")
    assert value == 1.0


# -- vectorized median --------------------------------------------------------
#
# The ``median`` bootstrap statistic carries its own bit-identity
# argument: ``np.quantile(..., 0.5)`` interpolates with
# ``b - (b - a) * 0.5``, which differs from the oracle's
# ``0.5 * (a + b)`` in IEEE-754, so the kernel uses ``np.partition``
# (pure selection) plus the oracle's exact midpoint expression.  The
# counterexample is pinned here so nobody "simplifies" it back.


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


# -- backend registry --------------------------------------------------------


def test_backend_default_and_override():
    assert kernels.backend() == "numpy"
    kernels.set_backend("python")
    try:
        assert kernels.backend() == "python"
    finally:
        kernels.set_backend(None)
    assert kernels.backend() == "numpy"


def test_backend_env_var(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "python")
    assert kernels.backend() == "python"
    # An explicit override still wins over the environment.
    with kernels.use_backend("numpy"):
        assert kernels.backend() == "numpy"
    assert kernels.backend() == "python"


def test_backend_invalid_name_rejected(monkeypatch):
    # A removed backend name ("mp") must fail, not fall back.
    for bad in ("fortran", "mp"):
        with pytest.raises(ValueError):
            kernels.set_backend(bad)
    with pytest.raises(ValueError):
        resolve_kernels_backend("cuda")
    for bad in ("gpu", "mp"):
        monkeypatch.setenv("REPRO_KERNELS", bad)
        with pytest.raises(ValueError):
            kernels.backend()


def test_use_backend_restores_previous_on_error():
    with pytest.raises(RuntimeError):
        with kernels.use_backend("python"):
            raise RuntimeError("boom")
    assert kernels.backend() == "numpy"


def test_dispatchers_agree_across_backends():
    ligands = generate_ligands(20, 6, seed=42)
    with kernels.use_backend("python"):
        slow = kernels.lcs_scores(ligands, DEFAULT_PROTEIN)
    with kernels.use_backend("numpy"):
        fast = kernels.lcs_scores(ligands, DEFAULT_PROTEIN)
    assert fast == slow


def test_kernel_spans_are_tagged_with_backend():
    with telemetry.session() as session:
        with kernels.use_backend("python"):
            kernels.lcs_scores(["abc"], "abcd")
        with kernels.use_backend("numpy"):
            kernels.heat_steps([1.0, 2.0, 3.0], 0.25, 2)
    by_name = {span.name: span for span in session.tracer.spans}
    assert by_name["kernel.lcs_batch"].args["backend"] == "python"
    assert by_name["kernel.stencil"].args["backend"] == "numpy"
    assert session.metrics.counter("kernel.lcs.ligands").value == 1
