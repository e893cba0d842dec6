"""Gram-matrix kernels: factor agreement with the dense SVD route, the
input-driven ``hosvd`` route, and the no-densification guard.

Across 3-5-mode tensors the Gram HOSVD must match the dense HOSVD
factors to 1e-8 (up to sign), and on sparse inputs the
``tensor.dense_unfolds`` counter must stay at exactly zero — the proof
that no dense unfolding was materialized.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import RankError
from repro.observability import Tracer, use_tracer
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.sampling import GridSampler, RandomSampler, SliceSampler
from repro.tensor import (
    SparseTensor,
    clip_ranks,
    gram_hosvd,
    hosvd,
    mode_gram,
    sparse_project,
    sparse_ttm,
    ttm,
    unfold,
)
from repro.tensor.svd import gram_left_singular_vectors


def _random_tensor(ndim: int, seed: int) -> np.ndarray:
    """Standard-normal tensors: continuous entries keep the spectra
    well separated, so eigh/SVD subspace agreement is meaningful."""
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, 6, size=ndim)
    return rng.standard_normal(tuple(dims))


def _columns_match(u1: np.ndarray, u2: np.ndarray, atol: float) -> bool:
    """Column-wise agreement up to sign."""
    assert u1.shape == u2.shape
    for col in range(u1.shape[1]):
        delta = min(
            np.abs(u1[:, col] - u2[:, col]).max(),
            np.abs(u1[:, col] + u2[:, col]).max(),
        )
        if delta > atol:
            return False
    return True


class TestModeGram:
    def test_matches_dense_product(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((4, 5, 6))
        for mode in range(3):
            matricized = unfold(dense, mode)
            assert np.allclose(
                mode_gram(dense, mode), matricized @ matricized.T
            )

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((4, 5, 6))
        dense[dense < 0.5] = 0.0
        sparse = SparseTensor.from_dense(dense)
        for mode in range(3):
            assert np.allclose(
                mode_gram(sparse, mode), mode_gram(dense, mode), atol=1e-12
            )


class TestGramSingularVectors:
    def test_matches_svd_vectors(self):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((5, 40))
        from repro.tensor import truncated_svd

        u_svd, s, _vt = truncated_svd(matrix, 3)
        u_gram = gram_left_singular_vectors(matrix @ matrix.T, 3)
        assert _columns_match(u_svd, u_gram, 1e-8)

    def test_rank_validation(self):
        with pytest.raises(RankError):
            gram_left_singular_vectors(np.eye(3), 4)
        with pytest.raises(RankError):
            gram_left_singular_vectors(np.eye(3), 0)


class TestGramHosvd:
    @given(ndim=st.integers(3, 5), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_factors_match_dense_hosvd(self, ndim, seed):
        """Gram HOSVD == dense-route HOSVD factors to 1e-8 (up to
        sign) across 3-5-mode tensors."""
        dense = _random_tensor(ndim, seed)
        ranks = tuple(min(2, s) for s in dense.shape)
        exact = hosvd(dense, ranks)
        gram = gram_hosvd(dense, ranks)
        for u_exact, u_gram in zip(exact.factors, gram.factors):
            assert _columns_match(u_exact, u_gram, 1e-8)
        assert np.allclose(
            exact.reconstruct(), gram.reconstruct(), atol=1e-8
        )

    @given(ndim=st.integers(3, 5), seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_sparse_matches_dense_input(self, ndim, seed):
        """``hosvd`` routes a sparse input to Gram and a dense one to
        LAPACK; both routes reconstruct the same tensor."""
        dense = _random_tensor(ndim, seed)
        dense[np.abs(dense) < 0.4] = 0.0
        sparse = SparseTensor.from_dense(dense)
        ranks = tuple(min(2, s) for s in dense.shape)
        assert np.allclose(
            hosvd(sparse, ranks).reconstruct(),
            hosvd(dense, ranks).reconstruct(),
            atol=1e-8,
        )

    def test_sparse_never_densifies(self):
        """Acceptance guard: ``tensor.dense_unfolds`` pinned at 0
        through ``hosvd`` of a sparse input."""
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((6, 7, 8))
        dense[np.abs(dense) < 0.8] = 0.0
        sparse = SparseTensor.from_dense(dense)
        registry = MetricsRegistry()
        with use_metrics(registry):
            hosvd(sparse, (3, 3, 3))
            assert registry.counter("tensor.dense_unfolds").value == 0

    def test_gram_hosvd_sparse_never_densifies(self):
        rng = np.random.default_rng(8)
        dense = rng.standard_normal((6, 7, 8))
        dense[np.abs(dense) < 0.8] = 0.0
        sparse = SparseTensor.from_dense(dense)
        registry = MetricsRegistry()
        with use_metrics(registry):
            gram_hosvd(sparse, (3, 3, 3))
            assert registry.counter("tensor.dense_unfolds").value == 0

    def test_route_follows_input(self):
        """Sparse input takes the Gram route bit for bit, dense input
        the dense route; the ``hosvd`` span records which."""
        rng = np.random.default_rng(9)
        dense = rng.standard_normal((5, 6, 7))
        dense[np.abs(dense) < 0.5] = 0.0
        sparse = SparseTensor.from_dense(dense)
        with use_tracer(Tracer()) as tracer:
            via_sparse = hosvd(sparse, (2, 2, 2))
            hosvd(dense, (2, 2, 2))
        assert np.array_equal(
            via_sparse.core, gram_hosvd(sparse, (2, 2, 2)).core
        )
        routes = [span.attrs["route"] for span in tracer.iter_spans()
                  if span.name == "hosvd"]
        assert routes == ["gram", "dense"]


class TestRouteOnGoldenSamples:
    @pytest.mark.parametrize(
        "sampler",
        [RandomSampler(7), GridSampler(), SliceSampler(7)],
        ids=lambda sampler: sampler.name,
    )
    def test_sparse_route_matches_dense(self, pendulum_study, sampler):
        """On the conventional baselines' samples the Gram route
        reconstructs what the dense route does, to 1e-10 relative."""
        truth = pendulum_study.truth
        sample = sampler.sample(truth.shape, pendulum_study.matched_budget())
        ensemble = SparseTensor(
            truth.shape, sample.coords, truth[tuple(sample.coords.T)]
        )
        ranks = clip_ranks(truth.shape, [3] * truth.ndim)
        reference = hosvd(ensemble.to_dense(), ranks).reconstruct()
        routed = hosvd(ensemble, ranks).reconstruct()
        error = np.linalg.norm(routed - reference) / np.linalg.norm(reference)
        assert error < 1e-10


class TestSparseTtm:
    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_ttm(self, seed, data):
        dense = _random_tensor(3, seed)
        dense[np.abs(dense) < 0.3] = 0.0
        sparse = SparseTensor.from_dense(dense)
        mode = data.draw(st.integers(0, 2))
        rows = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(seed + 1)
        matrix = rng.standard_normal((rows, dense.shape[mode]))
        assert np.allclose(
            sparse_ttm(sparse, matrix, mode),
            ttm(dense, matrix, mode),
            atol=1e-12,
        )

    def test_sparse_project_matches_multi_ttm(self):
        from repro.tensor import multi_ttm

        rng = np.random.default_rng(11)
        dense = rng.standard_normal((5, 6, 7))
        dense[np.abs(dense) < 0.3] = 0.0
        sparse = SparseTensor.from_dense(dense)
        factors = [rng.standard_normal((s, 2)) for s in dense.shape]
        assert np.allclose(
            sparse_project(sparse, factors),
            multi_ttm(dense, factors, transpose=True),
            atol=1e-12,
        )
