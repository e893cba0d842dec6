"""JE-stitching: join and zero-join semantics (paper Section V-C)."""

import numpy as np
import pytest

from repro.core import join_tensor, to_original_order, zero_join_tensor
from repro.core.stitch import dense_to_original_order
from repro.core.join_tensor import dense_join_from_subs
from repro.exceptions import StitchError
from repro.sampling import PFPartition
from repro.tensor import SparseTensor

SHAPE = (3, 3, 3, 3, 3)


def partition():
    return PFPartition(SHAPE, (4,), (0, 1), (2, 3))


def full_subs(rng, part):
    x1 = SparseTensor.from_dense(
        rng.standard_normal(part.sub_shape(1)) + 3.0, keep_zeros=True
    )
    x2 = SparseTensor.from_dense(
        rng.standard_normal(part.sub_shape(2)) + 3.0, keep_zeros=True
    )
    return x1, x2


class TestJoin:
    def test_matches_dense_closed_form(self, rng):
        part = partition()
        x1, x2 = full_subs(rng, part)
        joined = join_tensor(x1, x2, part)
        dense = dense_join_from_subs(x1.to_dense(), x2.to_dense(), part)
        assert np.allclose(joined.to_dense(), dense)

    def test_average_value(self):
        part = partition()
        # one cell each, same pivot value 2
        x1 = SparseTensor(part.sub_shape(1), [[2, 0, 1]], [4.0])
        x2 = SparseTensor(part.sub_shape(2), [[2, 1, 2]], [10.0])
        joined = join_tensor(x1, x2, part)
        assert joined.nnz == 1
        # join order (pivot, s1, s2): (2, 0, 1, 1, 2)
        assert joined.get((2, 0, 1, 1, 2)) == pytest.approx(7.0)

    def test_no_pivot_match_yields_empty(self):
        part = partition()
        x1 = SparseTensor(part.sub_shape(1), [[0, 0, 0]], [1.0])
        x2 = SparseTensor(part.sub_shape(2), [[1, 0, 0]], [2.0])
        assert join_tensor(x1, x2, part).nnz == 0

    def test_entry_count_is_p_e1_e2(self, rng):
        part = partition()
        x1, x2 = full_subs(rng, part)
        joined = join_tensor(x1, x2, part)
        assert joined.nnz == 3 * 9 * 9

    def test_rejects_wrong_sub_shape(self, rng):
        part = partition()
        bad = SparseTensor((2, 2, 2), [[0, 0, 0]], [1.0])
        _x1, x2 = full_subs(rng, part)
        with pytest.raises(StitchError):
            join_tensor(bad, x2, part)


class TestZeroJoin:
    def test_reduces_to_join_on_complete_subs(self, rng):
        part = partition()
        x1, x2 = full_subs(rng, part)
        joined = join_tensor(x1, x2, part)
        zero_joined = zero_join_tensor(x1, x2, part)
        assert joined == zero_joined

    def test_one_sided_contributes_half(self):
        part = partition()
        # x1 observed at pivot 0; x2 observed only at pivot 1.
        x1 = SparseTensor(part.sub_shape(1), [[0, 0, 0]], [4.0])
        x2 = SparseTensor(part.sub_shape(2), [[1, 2, 2]], [6.0])
        zero_joined = zero_join_tensor(x1, x2, part)
        # At pivot 0: x1 pairs with candidate (2,2) as (4+0)/2.
        assert zero_joined.get((0, 0, 0, 2, 2)) == pytest.approx(2.0)
        # At pivot 1: x2 pairs with candidate (0,0) as (0+6)/2.
        assert zero_joined.get((1, 0, 0, 2, 2)) == pytest.approx(3.0)
        assert zero_joined.nnz == 2

    def test_matched_pair_still_averages(self):
        part = partition()
        x1 = SparseTensor(part.sub_shape(1), [[0, 1, 1]], [4.0])
        x2 = SparseTensor(part.sub_shape(2), [[0, 2, 0]], [8.0])
        zero_joined = zero_join_tensor(x1, x2, part)
        assert zero_joined.get((0, 1, 1, 2, 0)) == pytest.approx(6.0)
        assert zero_joined.nnz == 1

    def test_denser_than_join_under_random_sampling(self, rng):
        part = partition()
        # Sparse random sub-ensembles: few pivot matches.
        def random_sub(which, seed):
            shape = part.sub_shape(which)
            gen = np.random.default_rng(seed)
            size = int(np.prod(shape))
            flat = gen.choice(size, size=6, replace=False)
            coords = np.stack(np.unravel_index(flat, shape), axis=1)
            return SparseTensor(shape, coords, gen.standard_normal(6))

        x1 = random_sub(1, 1)
        x2 = random_sub(2, 2)
        assert (
            zero_join_tensor(x1, x2, part).nnz
            >= join_tensor(x1, x2, part).nnz
        )


class TestOrderRestoration:
    def test_sparse_transpose_matches_dense(self, rng):
        part = partition()
        x1, x2 = full_subs(rng, part)
        joined = join_tensor(x1, x2, part)
        restored = to_original_order(joined, part)
        dense = dense_to_original_order(joined.to_dense(), part)
        assert np.allclose(restored.to_dense(), dense)

    def test_restored_join_approximates_separable_truth(self, rng):
        """If the truth is exactly pivot-separable, the restored join
        reproduces it exactly."""
        part = partition()
        a = rng.standard_normal((3, 3, 3))  # (pivot, s1 modes)
        b = rng.standard_normal((3, 3, 3))  # (pivot, s2 modes)
        # truth[phi1, m1, phi2, m2, t] = (a[t, phi1, m1] + b[t, phi2, m2]) / 2
        truth = 0.5 * (
            np.transpose(a, (1, 2, 0))[:, :, None, None, :]
            + np.transpose(b, (1, 2, 0))[None, None, :, :, :]
        )
        x1 = SparseTensor.from_dense(
            part.extract_sub_tensor(1, truth) * 0 + a, keep_zeros=True
        )
        x2 = SparseTensor.from_dense(b, keep_zeros=True)
        joined = to_original_order(join_tensor(x1, x2, part), part)
        assert np.allclose(joined.to_dense(), truth)
