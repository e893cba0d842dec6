"""SparseTensor: construction, conversions, and null-vs-zero semantics."""

import numpy as np
import pytest

from repro.exceptions import ModeError, ShapeError
from repro.tensor import SparseTensor, unfold


def small_tensor():
    return SparseTensor(
        (3, 4, 2),
        coords=[[0, 0, 0], [2, 3, 1], [1, 2, 0]],
        values=[1.0, -2.5, 4.0],
    )


class TestConstruction:
    def test_basic(self):
        tensor = small_tensor()
        assert tensor.shape == (3, 4, 2)
        assert tensor.nnz == 3
        assert tensor.size == 24
        assert tensor.density == pytest.approx(3 / 24)

    def test_empty(self):
        tensor = SparseTensor((2, 2))
        assert tensor.nnz == 0
        assert np.array_equal(tensor.to_dense(), np.zeros((2, 2)))

    def test_duplicates_averaged(self):
        tensor = SparseTensor(
            (2, 2), coords=[[0, 1], [0, 1], [1, 0]], values=[2.0, 4.0, 7.0]
        )
        assert tensor.nnz == 2
        assert tensor.get((0, 1)) == pytest.approx(3.0)
        assert tensor.get((1, 0)) == pytest.approx(7.0)

    def test_explicit_zero_is_stored(self):
        tensor = SparseTensor((2, 2), coords=[[0, 0]], values=[0.0])
        assert tensor.nnz == 1

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ShapeError):
            SparseTensor((2, 2), coords=[[0, 2]], values=[1.0])
        with pytest.raises(ShapeError):
            SparseTensor((2, 2), coords=[[-1, 0]], values=[1.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ShapeError):
            SparseTensor((2, 2), coords=[[0, 0]], values=[1.0, 2.0])

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            SparseTensor((0, 2))

    def test_from_dict(self):
        tensor = SparseTensor.from_dict((2, 3), {(0, 1): 5.0, (1, 2): -1.0})
        assert tensor.get((0, 1)) == 5.0
        assert tensor.get((1, 2)) == -1.0
        assert SparseTensor.from_dict((2, 3), {}).nnz == 0

    def test_from_dense_roundtrip(self, rng):
        dense = rng.standard_normal((3, 4, 2))
        dense[dense < 0] = 0.0
        tensor = SparseTensor.from_dense(dense)
        assert np.allclose(tensor.to_dense(), dense)

    def test_from_dense_keep_zeros(self):
        dense = np.zeros((2, 3))
        dense[0, 1] = 5.0
        tensor = SparseTensor.from_dense(dense, keep_zeros=True)
        assert tensor.nnz == 6
        assert np.allclose(tensor.to_dense(), dense)


class TestAccess:
    def test_get_default(self):
        tensor = small_tensor()
        assert tensor.get((0, 1, 1)) == 0.0
        assert tensor.get((0, 1, 1), default=-1.0) == -1.0

    def test_get_rejects_bad_length(self):
        with pytest.raises(ShapeError):
            small_tensor().get((0, 1))

    def test_items(self):
        items = dict(small_tensor().items())
        assert items[(2, 3, 1)] == pytest.approx(-2.5)
        assert len(items) == 3

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(small_tensor())

    def test_equality(self):
        assert small_tensor() == small_tensor()
        other = SparseTensor((3, 4, 2), [[0, 0, 0]], [1.0])
        assert small_tensor() != other


class TestUnfoldCsr:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_dense_unfold(self, mode, rng):
        dense = rng.standard_normal((3, 4, 5))
        dense[np.abs(dense) < 0.8] = 0.0
        tensor = SparseTensor.from_dense(dense)
        matrix = tensor.unfold_csr(mode)
        assert matrix.shape == unfold(dense, mode).shape
        assert np.allclose(matrix.toarray(), unfold(dense, mode))

    def test_frobenius_norm(self):
        tensor = small_tensor()
        assert tensor.frobenius_norm() == pytest.approx(
            np.linalg.norm(tensor.to_dense())
        )


class TestTransforms:
    def test_transpose(self, rng):
        dense = rng.standard_normal((2, 3, 4))
        tensor = SparseTensor.from_dense(dense)
        transposed = tensor.transpose((2, 0, 1))
        assert transposed.shape == (4, 2, 3)
        assert np.allclose(transposed.to_dense(), np.transpose(dense, (2, 0, 1)))

    def test_transpose_rejects_bad_perm(self):
        with pytest.raises(ModeError):
            small_tensor().transpose((0, 0, 1))

    def test_scale(self):
        doubled = small_tensor().scale(2.0)
        assert doubled.get((0, 0, 0)) == pytest.approx(2.0)

    def test_slice_mode(self, rng):
        dense = rng.standard_normal((3, 4, 2))
        tensor = SparseTensor.from_dense(dense)
        sliced = tensor.slice_mode(1, 2)
        assert sliced.shape == (3, 2)
        assert np.allclose(sliced.to_dense(), dense[:, 2, :])

    def test_slice_mode_rejects_bad_index(self):
        with pytest.raises(ModeError):
            small_tensor().slice_mode(1, 9)

    def test_slice_only_mode_rejected(self):
        tensor = SparseTensor((4,), [[1]], [2.0])
        with pytest.raises(ShapeError):
            tensor.slice_mode(0, 1)
