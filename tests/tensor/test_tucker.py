"""Tucker decomposition: HOSVD (paper Algorithm 1), HOOI, container."""

import numpy as np
import pytest

from repro.core.join_tensor import dense_join_from_subs
from repro.exceptions import RankError, ShapeError
from repro.tensor import (
    SparseTensor,
    TuckerTensor,
    clip_ranks,
    hooi,
    hosvd,
    validate_ranks,
)

from ..generators import random_low_rank


class TestTuckerTensor:
    def test_reconstruct_shape(self, rng):
        core = rng.standard_normal((2, 3))
        factors = [rng.standard_normal((5, 2)), rng.standard_normal((6, 3))]
        tucker = TuckerTensor(core, factors)
        assert tucker.shape == (5, 6)
        assert tucker.rank == (2, 3)
        assert tucker.reconstruct().shape == (5, 6)

    def test_rejects_mismatched_factor(self, rng):
        with pytest.raises(ShapeError):
            TuckerTensor(
                rng.standard_normal((2, 3)),
                [rng.standard_normal((5, 2)), rng.standard_normal((6, 4))],
            )

    def test_rejects_wrong_factor_count(self, rng):
        with pytest.raises(ShapeError):
            TuckerTensor(rng.standard_normal((2, 3)), [np.eye(2)])

    def test_compression_ratio(self, rng):
        tucker = TuckerTensor(
            rng.standard_normal((2, 2)),
            [rng.standard_normal((10, 2)) for _ in range(2)],
        )
        assert tucker.compression_ratio() == pytest.approx((4 + 40) / 100)

    def test_accuracy_is_one_minus_relative_error(self, rng):
        tensor = random_low_rank((5, 6, 4), (2, 2, 2), seed=1)
        tucker = hosvd(tensor, (2, 2, 2))
        assert tucker.accuracy(tensor) == pytest.approx(
            1 - tucker.relative_error(tensor)
        )

    @pytest.mark.parametrize("bad", ["nan", "inf", "zero"])
    def test_accuracy_rejects_a_truth_with_no_score(self, bad):
        """The same typed error as ``core.evaluation.accuracy``, never a
        ``nan`` or ``-inf`` score."""
        tensor = random_low_rank((5, 6, 4), (2, 2, 2), seed=1)
        tucker = hosvd(tensor, (2, 2, 2))
        truth = np.zeros_like(tensor)
        if bad != "zero":
            truth = tensor.copy()
            truth[1, 2, 3] = float(bad)
        with pytest.raises(ShapeError, match="non-finite|zero norm"):
            tucker.accuracy(truth)


class TestRankValidation:
    def test_validate_ok(self):
        assert validate_ranks((5, 6), (2, 3)) == (2, 3)

    def test_validate_rejects(self):
        with pytest.raises(RankError):
            validate_ranks((5, 6), (2,))
        with pytest.raises(RankError):
            validate_ranks((5, 6), (0, 3))
        with pytest.raises(RankError):
            validate_ranks((5, 6), (2, 7))

    def test_clip(self):
        assert clip_ranks((5, 3), (10, 2)) == (5, 2)
        assert clip_ranks((5, 3), (0, 9)) == (1, 3)


class TestHosvd:
    def test_exact_recovery_of_low_rank(self):
        tensor = random_low_rank((6, 7, 8), (2, 3, 2), seed=0)
        tucker = hosvd(tensor, (2, 3, 2))
        assert tucker.rank == (2, 3, 2)
        assert tucker.relative_error(tensor) < 1e-10

    def test_orthonormal_factors(self):
        tensor = random_low_rank((6, 7, 8), (2, 3, 2), seed=0)
        tucker = hosvd(tensor, (2, 3, 2))
        for factor in tucker.factors:
            assert np.allclose(
                factor.T @ factor, np.eye(factor.shape[1]), atol=1e-10
            )

    def test_sparse_input_matches_dense(self):
        tensor = random_low_rank((6, 7, 8), (2, 3, 2), seed=0)
        sparse = SparseTensor.from_dense(tensor, keep_zeros=True)
        dense_result = hosvd(tensor, (2, 3, 2))
        sparse_result = hosvd(sparse, (2, 3, 2))
        assert sparse_result.rank == (2, 3, 2)
        assert np.allclose(
            dense_result.reconstruct(), sparse_result.reconstruct()
        )

    def test_truncation_error_monotone_in_rank(self, rng):
        tensor = rng.standard_normal((6, 6, 6))
        errors = [
            hosvd(tensor, (r, r, r)).relative_error(tensor) for r in (1, 3, 6)
        ]
        assert errors[0] >= errors[1] >= errors[2]

    def test_rejects_bad_ranks(self, rng):
        with pytest.raises(RankError):
            hosvd(rng.standard_normal((4, 4)), (5, 2))


class TestHooi:
    def test_refines_or_matches_hosvd(self, rng):
        tensor = rng.standard_normal((8, 8, 8))
        ranks = (3, 3, 3)
        base = hosvd(tensor, ranks).relative_error(tensor)
        refined = hooi(tensor, ranks).relative_error(tensor)
        assert refined <= base + 1e-10

    def test_refines_or_matches_hosvd_on_join_tensor(self, pendulum_subs):
        """The same on a stitched pendulum join tensor, where both
        methods must also capture some of it."""
        partition, x1, x2 = pendulum_subs
        joined = dense_join_from_subs(x1, x2, partition)
        ranks = (3,) * 5
        base = hosvd(joined, ranks).relative_error(joined)
        assert base < 1.0
        assert hooi(joined, ranks, n_iter=3).relative_error(joined) < 1.0
        refined = hooi(joined, ranks, n_iter=5).relative_error(joined)
        assert refined <= base + 1e-10

    def test_exact_on_low_rank(self):
        tensor = random_low_rank((6, 5, 7), (2, 2, 2), seed=3)
        assert hooi(tensor, (2, 2, 2)).relative_error(tensor) < 1e-9

    def test_accepts_initial(self, rng):
        tensor = rng.standard_normal((6, 6, 6))
        initial = hosvd(tensor, (2, 2, 2))
        result = hooi(tensor, (2, 2, 2), initial=initial, n_iter=2)
        assert result.relative_error(tensor) <= initial.relative_error(tensor) + 1e-10
