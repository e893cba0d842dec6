"""Seed normalization and the seeded test-input generators."""

import numpy as np
import pytest

from repro.exceptions import RankError, ShapeError
from repro.tensor import hosvd, make_rng

from ..generators import random_low_rank, random_orthonormal, random_sparse


class TestMakeRng:
    def test_passthrough_generator(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_seed_reproducible(self):
        assert make_rng(5).integers(1000) == make_rng(5).integers(1000)


class TestRandomLowRank:
    def test_has_requested_multilinear_rank(self):
        tensor = random_low_rank((6, 7, 8), (2, 3, 2), seed=2)
        assert hosvd(tensor, (2, 3, 2)).relative_error(tensor) < 1e-10

    def test_noise_breaks_exactness(self):
        tensor = random_low_rank((6, 7, 8), (2, 2, 2), noise=0.5, seed=2)
        assert hosvd(tensor, (2, 2, 2)).relative_error(tensor) > 1e-3

    def test_rejects_bad_ranks(self):
        with pytest.raises(RankError):
            random_low_rank((4, 4), (5, 1))
        with pytest.raises(RankError):
            random_low_rank((4, 4), (2,))


class TestRandomSparse:
    def test_density(self):
        tensor = random_sparse((10, 10, 10), 0.05, seed=0)
        assert tensor.nnz == 50

    def test_at_least_one_cell(self):
        assert random_sparse((50, 50), 1e-9, seed=0).nnz == 1

    def test_rejects_bad_density(self):
        with pytest.raises(ShapeError):
            random_sparse((4, 4), 0.0)
        with pytest.raises(ShapeError):
            random_sparse((4, 4), 1.5)

    def test_no_duplicate_coordinates(self):
        tensor = random_sparse((6, 6), 0.5, seed=3)
        unique = np.unique(tensor.coords, axis=0)
        assert unique.shape[0] == tensor.nnz


class TestRandomOrthonormal:
    def test_orthonormal(self):
        q = random_orthonormal(8, 3, seed=1)
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-10)

    def test_rejects_too_many_columns(self):
        with pytest.raises(ShapeError):
            random_orthonormal(3, 5)
