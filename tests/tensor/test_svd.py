"""Deterministic truncated SVD: correctness, determinism, dispatch."""

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import RankError
from repro.observability import Tracer, use_metrics, use_tracer
from repro.tensor import (
    deterministic_signs,
    leading_left_singular_vectors,
    truncated_svd,
    truncated_svds,
)
from repro.tensor.svd import gram_left_singular_vectors

from ..generators import spectral_energy


class TestDeterministicSigns:
    def test_largest_entry_positive(self, rng):
        basis = rng.standard_normal((6, 3))
        fixed = deterministic_signs(basis)
        for col in range(3):
            pivot = np.abs(fixed[:, col]).argmax()
            assert fixed[pivot, col] > 0

    def test_idempotent(self, rng):
        basis = deterministic_signs(rng.standard_normal((6, 3)))
        assert np.allclose(deterministic_signs(basis), basis)

    def test_zero_column_untouched(self):
        basis = np.zeros((4, 2))
        basis[:, 0] = [0, -3, 1, 0]
        fixed = deterministic_signs(basis)
        assert np.allclose(fixed[:, 1], 0)
        assert fixed[1, 0] == 3


class TestTruncatedSvd:
    def test_reconstruction_full_rank(self, rng):
        matrix = rng.standard_normal((8, 5))
        u, s, vt = truncated_svd(matrix, 5)
        assert np.allclose(u @ np.diag(s) @ vt, matrix)

    def test_orthonormal_u(self, rng):
        matrix = rng.standard_normal((10, 6))
        u, _s, _vt = truncated_svd(matrix, 3)
        assert np.allclose(u.T @ u, np.eye(3), atol=1e-10)

    def test_singular_values_sorted(self, rng):
        _u, s, _vt = truncated_svd(rng.standard_normal((10, 8)), 5)
        assert np.all(np.diff(s) <= 1e-12)

    @pytest.mark.parametrize(
        "shape, rank",
        [((6, 5), 5), ((40, 35), 4)],
        ids=["6x5-rank5", "40x35-rank4"],
    )
    def test_sparse_and_dense_agree(self, rng, shape, rank):
        dense = rng.standard_normal(shape)
        dense[np.abs(dense) < 1.0] = 0.0
        sparse = sps.csr_matrix(dense)
        for expected, got in zip(
            truncated_svd(dense, rank), truncated_svd(sparse, rank)
        ):
            assert np.array_equal(expected, got)

    def test_deterministic_across_calls(self, rng):
        matrix = rng.standard_normal((50, 40))
        u1, _s1, _vt1 = truncated_svd(sps.csr_matrix(matrix), 3)
        u2, _s2, _vt2 = truncated_svd(sps.csr_matrix(matrix), 3)
        assert np.array_equal(u1, u2)

    def test_rank_validation(self, rng):
        matrix = rng.standard_normal((4, 3))
        with pytest.raises(RankError):
            truncated_svd(matrix, 0)
        with pytest.raises(RankError):
            truncated_svd(matrix, 4)


@st.composite
def svd_batches(draw):
    """1-8 matrices with repeated and mixed shapes (rows 1-12, columns
    1-80), some all zero or with zero columns, and a rank each in
    ``1..min(shape)``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = []
    matrices, ranks = [], []
    for _ in range(draw(st.integers(1, 8))):
        if shapes and draw(st.booleans()):
            shape = draw(st.sampled_from(shapes))
        else:
            shape = (draw(st.integers(1, 12)), draw(st.integers(1, 80)))
            shapes.append(shape)
        fill = draw(st.sampled_from(["normal", "zero", "zero-columns"]))
        matrix = np.zeros(shape)
        if fill != "zero":
            matrix = rng.standard_normal(shape)
        if fill == "zero-columns":
            matrix[:, rng.random(shape[1]) < 0.5] = 0.0
        matrices.append(matrix)
        ranks.append(draw(st.integers(1, min(shape))))
    return matrices, ranks


class TestTruncatedSvds:
    @given(batch=svd_batches())
    @settings(max_examples=150, deadline=None)
    def test_matches_one_call_per_matrix(self, batch):
        """Bit for bit on U, s and Vt: one stacked LAPACK call per
        shape is each matrix's own SVD, signs normalized per matrix."""
        matrices, ranks = batch
        with use_metrics() as registry:
            batched = truncated_svds(matrices, ranks)
            assert registry.counter("svd.calls").value == len(matrices)
            rank = registry.histogram("svd.rank")
            assert (rank.count, rank.total) == (len(ranks), sum(ranks))
        assert len(batched) == len(matrices)
        for matrix, r, got in zip(matrices, ranks, batched):
            single = truncated_svd(matrix, r)
            u, s, vt = np.linalg.svd(matrix, full_matrices=False)
            # the sign rule column by column, independent of the kernel
            sign = np.array([
                -1.0 if col[np.abs(col).argmax()] < 0 else 1.0
                for col in u[:, :r].T
            ])
            plain = (u[:, :r] * sign, s[:r], vt[:r] * sign[:, None])
            for want, alone, have in zip(plain, single, got):
                assert have.shape == want.shape
                assert np.array_equal(have, alone)
                assert np.array_equal(have, want)

    def test_one_span_per_shape(self, rng):
        """A truncated-svd span per distinct shape, ``batch`` matrices
        each, dense, in first-seen order of the shapes."""
        shapes = [(8, 64), (8, 128), (8, 64), (3, 5), (8, 64)]
        matrices = [rng.standard_normal(shape) for shape in shapes]
        with use_tracer(Tracer()) as tracer:
            truncated_svds(matrices, [2, 3, 1, 3, 2])
        spans = [
            s for s in tracer.iter_spans() if s.name == "truncated-svd"
        ]
        assert [
            (s.category, s.attrs["shape"], s.attrs["batch"],
             s.attrs["ranks"], s.attrs["sparse"])
            for s in spans
        ] == [
            ("decompose", (8, 64), 3, (2, 1, 2), False),
            ("decompose", (8, 128), 1, (3,), False),
            ("decompose", (3, 5), 1, (3,), False),
        ]

    def test_sparse_inputs_densified_in_their_own_call(self, rng):
        dense = rng.standard_normal((6, 5))
        with use_metrics() as registry:
            got = truncated_svds([dense, sps.csr_matrix(dense)], [2, 2])
            assert registry.counter("tensor.dense_unfolds").value == 1
        for a, b in zip(*got):
            assert np.array_equal(a, b)

    def test_validation(self, rng):
        matrix = rng.standard_normal((4, 3))
        assert truncated_svds([], []) == []
        with pytest.raises(RankError, match="one rank per matrix"):
            truncated_svds([matrix, matrix], [1])
        with pytest.raises(RankError):
            truncated_svds([matrix, matrix], [1, 4])


class TestGramLeftSingularVectors:
    def test_matches_svd_vectors(self):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((5, 40))
        u_svd, _s, _vt = truncated_svd(matrix, 3)
        u_gram = gram_left_singular_vectors(matrix @ matrix.T, 3)
        # same signs by convention, same subspace up to eps * kappa^2
        assert np.allclose(u_svd, u_gram, atol=1e-8)

    def test_rank_validation(self):
        with pytest.raises(RankError):
            gram_left_singular_vectors(np.eye(3), 4)
        with pytest.raises(RankError):
            gram_left_singular_vectors(np.eye(3), 0)


class TestHelpers:
    def test_leading_vectors_shape(self, rng):
        u = leading_left_singular_vectors(rng.standard_normal((7, 9)), 2)
        assert u.shape == (7, 2)

    def test_spectral_energy_full_is_frobenius(self, rng):
        matrix = rng.standard_normal((5, 4))
        assert spectral_energy(matrix, 4) == pytest.approx(
            (matrix**2).sum()
        )

    def test_spectral_energy_monotone(self, rng):
        matrix = rng.standard_normal((6, 6))
        energies = [spectral_energy(matrix, r) for r in (1, 3, 6)]
        assert energies[0] <= energies[1] <= energies[2]
