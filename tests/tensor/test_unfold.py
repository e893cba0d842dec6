"""Unfold: the matricization convention everything else rests on."""

import numpy as np
import pytest

from repro.exceptions import ModeError, ShapeError
from repro.tensor import unfold

from ..generators import kolda_unfolding_of_arange


class TestUnfold:
    def test_shape(self):
        tensor = np.arange(24.0).reshape(2, 3, 4)
        assert unfold(tensor, 0).shape == (2, 12)
        assert unfold(tensor, 1).shape == (3, 8)
        assert unfold(tensor, 2).shape == (4, 6)

    def test_mode0_columns_are_fibers(self):
        tensor = np.arange(24.0).reshape(2, 3, 4)
        matrix = unfold(tensor, 0)
        # Column 0 must be the (.,0,0) fiber.
        assert np.array_equal(matrix[:, 0], tensor[:, 0, 0])

    def test_fortran_column_order(self):
        # The first non-unfolded mode varies fastest along columns.
        tensor = np.arange(24.0).reshape(2, 3, 4)
        matrix = unfold(tensor, 0)
        assert np.array_equal(matrix[:, 1], tensor[:, 1, 0])
        assert np.array_equal(matrix[:, 3], tensor[:, 0, 1])

    def test_negative_mode(self):
        tensor = np.arange(24.0).reshape(2, 3, 4)
        assert np.array_equal(unfold(tensor, -1), unfold(tensor, 2))

    def test_matrix_unfold_is_identity_or_transpose(self):
        matrix = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(unfold(matrix, 0), matrix)
        assert np.array_equal(unfold(matrix, 1), matrix.T)

    def test_rejects_bad_mode(self):
        with pytest.raises(ModeError):
            unfold(np.zeros((2, 2)), 5)
        with pytest.raises(ModeError):
            unfold(np.zeros((2, 2)), 1.5)

    def test_rejects_scalar(self):
        with pytest.raises(ShapeError):
            unfold(np.array(3.0), 0)


class TestBijection:
    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_each_index_once_in_kolda_order(self, mode):
        shape = (3, 4, 2, 5)
        tensor = np.arange(np.prod(shape)).reshape(shape)
        matrix = unfold(tensor, mode)
        assert np.array_equal(
            matrix, kolda_unfolding_of_arange(shape, mode)
        )
        assert np.array_equal(np.sort(matrix, axis=None), tensor.ravel())
