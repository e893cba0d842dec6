"""Sequentially truncated HOSVD."""

import numpy as np
import pytest

from repro.exceptions import RankError
from repro.tensor import (
    SparseTensor,
    hosvd,
    st_hosvd,
)

from ..generators import random_low_rank


class TestStHosvd:
    def test_exact_on_low_rank(self):
        tensor = random_low_rank((7, 8, 6), (2, 3, 2), seed=0)
        assert st_hosvd(tensor, (2, 3, 2)).relative_error(tensor) < 1e-10

    def test_same_error_class_as_hosvd(self, rng):
        tensor = rng.standard_normal((8, 8, 8))
        ranks = (3, 3, 3)
        st_error = st_hosvd(tensor, ranks).relative_error(tensor)
        plain_error = hosvd(tensor, ranks).relative_error(tensor)
        # Both are quasi-optimal; neither should be wildly worse.
        assert st_error < plain_error * 1.2 + 1e-9

    def test_orthonormal_factors(self, rng):
        tensor = rng.standard_normal((6, 7, 5))
        result = st_hosvd(tensor, (2, 3, 2))
        for factor in result.factors:
            assert np.allclose(
                factor.T @ factor, np.eye(factor.shape[1]), atol=1e-10
            )

    def test_core_shape(self, rng):
        tensor = rng.standard_normal((6, 7, 5))
        result = st_hosvd(tensor, (2, 3, 4))
        assert result.core.shape == (2, 3, 4)

    def test_sparse_input(self):
        dense = random_low_rank((6, 6, 6), (2, 2, 2), seed=1)
        sparse = SparseTensor.from_dense(dense, keep_zeros=True)
        a = st_hosvd(sparse, (2, 2, 2))
        b = st_hosvd(dense, (2, 2, 2))
        assert np.allclose(a.reconstruct(), b.reconstruct())

    def test_rejects_bad_ranks(self, rng):
        with pytest.raises(RankError):
            st_hosvd(rng.standard_normal((4, 4)), (5, 2))

    def test_first_mode_matches_hosvd_factor(self, rng):
        """The first factor sees the unprojected tensor, so it must
        equal plain HOSVD's first factor exactly."""
        tensor = rng.standard_normal((6, 7, 5))
        a = st_hosvd(tensor, (2, 3, 2))
        b = hosvd(tensor, (2, 3, 2))
        assert np.allclose(a.factors[0], b.factors[0])
