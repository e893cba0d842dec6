"""Deterministic truncated SVD: correctness, determinism, dispatch."""

import numpy as np
import pytest
import scipy.sparse as sps

from repro.exceptions import RankError
from repro.tensor import (
    deterministic_signs,
    leading_left_singular_vectors,
    truncated_svd,
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
