"""Compiled sparse layout: a pure acceleration structure.

``SparseTensor.compile()`` must never change results — the property
wall asserts bit-identity of coords/values/unfoldings/TTMs against the
uncompiled tensor, and the cache tests pin the
``tensor.unfold_cache_hits`` metering that proves the memoization is
actually engaged during HOOI sweeps.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.tensor import SparseTensor, hooi, sparse_ttm


def _random_sparse(seed: int, ndim: int = 3) -> SparseTensor:
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, 6, size=ndim))
    dense = rng.standard_normal(dims)
    dense[rng.random(dims) < 0.6] = 0.0
    return SparseTensor.from_dense(dense)


class TestCompileRoundTrip:
    @given(seed=st.integers(0, 10_000), ndim=st.integers(3, 5))
    @settings(max_examples=30, deadline=None)
    def test_coords_and_values_untouched(self, seed, ndim):
        tensor = _random_sparse(seed, ndim)
        coords_before = tensor.coords.copy()
        values_before = tensor.values.copy()
        compiled = tensor.compile()
        assert compiled is tensor
        assert np.array_equal(tensor.coords, coords_before)
        assert np.array_equal(tensor.values, values_before)
        assert tensor.compiled

    def test_compile_is_idempotent(self):
        tensor = _random_sparse(0)
        layout = tensor.compile()._layout
        assert tensor.compile()._layout is layout

    @given(seed=st.integers(0, 10_000), ndim=st.integers(3, 4))
    @settings(max_examples=30, deadline=None)
    def test_unfold_csr_bit_identical(self, seed, ndim):
        plain = _random_sparse(seed, ndim)
        compiled = _random_sparse(seed, ndim).compile()
        for mode in range(plain.ndim):
            a = plain.unfold_csr(mode)
            b = compiled.unfold_csr(mode)
            assert a.shape == b.shape
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_ttm_and_to_dense_unchanged(self, seed):
        plain = _random_sparse(seed)
        compiled = _random_sparse(seed).compile()
        rng = np.random.default_rng(seed + 1)
        matrix = rng.standard_normal((2, plain.shape[0]))
        assert np.array_equal(
            sparse_ttm(plain, matrix, 0), sparse_ttm(compiled, matrix, 0)
        )
        assert np.array_equal(plain.to_dense(), compiled.to_dense())


class TestUnfoldCache:
    def test_repeat_unfolds_hit_cache(self):
        tensor = _random_sparse(3).compile()
        registry = MetricsRegistry()
        with use_metrics(registry):
            first = tensor.unfold_csr(0)
            second = tensor.unfold_csr(0)
            assert second is first
            assert registry.counter("tensor.unfold_cache_hits").value == 1

    def test_uncompiled_never_hits(self):
        tensor = _random_sparse(4)
        registry = MetricsRegistry()
        with use_metrics(registry):
            tensor.unfold_csr(0)
            tensor.unfold_csr(0)
            assert registry.counter("tensor.unfold_cache_hits").value == 0

    def test_hooi_sweep_meters_cache_hits(self):
        """Satellite guard: ``tensor.unfold_cache_hits`` is metered in
        a HOOI sweep over a compiled sparse tensor."""
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((6, 7, 8))
        dense[rng.random(dense.shape) < 0.7] = 0.0
        tensor = SparseTensor.from_dense(dense).compile()
        registry = MetricsRegistry()
        with use_metrics(registry):
            hooi(tensor, (3, 3, 3), n_iter=2)
            hooi(tensor, (3, 3, 3), n_iter=2)
            assert registry.counter("tensor.unfold_cache_hits").value > 0
