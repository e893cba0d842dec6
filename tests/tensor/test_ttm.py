"""n-mode products: definition checks and algebraic identities."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.tensor import fold, multi_ttm, ttm, ttv, unfold


class TestTtm:
    def test_shape(self, rng):
        tensor = rng.standard_normal((3, 4, 5))
        matrix = rng.standard_normal((7, 4))
        assert ttm(tensor, matrix, 1).shape == (3, 7, 5)

    def test_identity(self, rng):
        tensor = rng.standard_normal((3, 4, 5))
        assert np.allclose(ttm(tensor, np.eye(4), 1), tensor)

    def test_definition_via_unfold(self, rng):
        tensor = rng.standard_normal((3, 4, 5))
        matrix = rng.standard_normal((2, 4))
        product = ttm(tensor, matrix, 1)
        assert np.allclose(unfold(product, 1), matrix @ unfold(tensor, 1))

    def test_composition_same_mode(self, rng):
        # (X x_n A) x_n B == X x_n (B A)
        tensor = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((2, 6))
        assert np.allclose(
            ttm(ttm(tensor, a, 1), b, 1), ttm(tensor, b @ a, 1)
        )

    def test_commutes_across_modes(self, rng):
        tensor = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((6, 5))
        assert np.allclose(
            ttm(ttm(tensor, a, 0), b, 2), ttm(ttm(tensor, b, 2), a, 0)
        )

    def test_rejects_mismatch(self, rng):
        with pytest.raises(ShapeError):
            ttm(rng.standard_normal((3, 4)), rng.standard_normal((2, 5)), 1)

    def test_rejects_vector_operand(self, rng):
        with pytest.raises(ShapeError):
            ttm(rng.standard_normal((3, 4)), np.ones(4), 1)


class TestMultiTtm:
    def test_all_modes(self, rng):
        tensor = rng.standard_normal((3, 4, 5))
        mats = [rng.standard_normal((2, s)) for s in tensor.shape]
        expected = tensor
        for mode, m in enumerate(mats):
            expected = ttm(expected, m, mode)
        assert np.allclose(multi_ttm(tensor, mats), expected)

    def test_none_skips(self, rng):
        tensor = rng.standard_normal((3, 4))
        m = rng.standard_normal((2, 4))
        result = multi_ttm(tensor, [None, m])
        assert np.allclose(result, ttm(tensor, m, 1))

    def test_transpose_flag(self, rng):
        tensor = rng.standard_normal((3, 4))
        m = rng.standard_normal((3, 2))
        projected = multi_ttm(tensor, [m, None], transpose=True)
        assert projected.shape == (2, 4)
        assert np.allclose(projected, ttm(tensor, m.T, 0))

    def test_skip_modes(self, rng):
        tensor = rng.standard_normal((3, 4))
        mats = [rng.standard_normal((2, 3)), rng.standard_normal((2, 4))]
        result = multi_ttm(tensor, mats, skip=[0])
        assert np.allclose(result, ttm(tensor, mats[1], 1))

    def test_rejects_wrong_count(self, rng):
        with pytest.raises(ShapeError):
            multi_ttm(rng.standard_normal((3, 4)), [np.eye(3)])


class TestTtv:
    def test_drops_mode(self, rng):
        tensor = rng.standard_normal((3, 4, 5))
        vector = rng.standard_normal(4)
        result = ttv(tensor, vector, 1)
        assert result.shape == (3, 5)
        expected = fold(
            (vector[None, :] @ unfold(tensor, 1)), 0, (1, 3, 5)
        )[0]
        assert np.allclose(result, expected)

    def test_rejects_mismatch(self, rng):
        with pytest.raises(ShapeError):
            ttv(rng.standard_normal((3, 4)), np.ones(5), 1)
