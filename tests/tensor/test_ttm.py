"""n-mode products: definition checks and algebraic identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ShapeError
from repro.serving.engine import FactorEngine
from repro.tensor import TuckerTensor, multi_ttm, ttm, unfold


def definition_product(tensor, matrix, mode):
    """``X ×_mode U`` by its definition, ``unfold(Y, n) = U @ unfold(X, n)``:
    the product's unfolding is scattered back to the cells it holds,
    read off the unfolding of the cell indices (no fold)."""
    shape = list(tensor.shape)
    shape[mode] = matrix.shape[0]
    cells = unfold(np.arange(np.prod(shape)).reshape(shape), mode)
    result = np.empty(int(np.prod(shape)))
    result[cells.ravel()] = (matrix @ unfold(tensor, mode)).ravel()
    return result.reshape(shape)


@st.composite
def ttm_cases(draw):
    """A tensor of 2–5 modes (sizes 1–12), one matrix of rank
    ``1..size`` per mode, and a random ``transpose`` flag, ``skip`` set
    and ``None`` entries."""
    shape = draw(st.lists(st.integers(1, 12), min_size=2, max_size=5)
                 .filter(lambda s: np.prod(s) <= 4000))
    seed = draw(st.integers(0, 2**32 - 1))
    transpose = draw(st.booleans())
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal(shape)
    matrices = []
    for size in shape:
        if draw(st.integers(0, 4)) == 0:
            matrices.append(None)
            continue
        rank = draw(st.integers(1, size))
        matrix = rng.standard_normal((rank, size))
        matrices.append(matrix.T if transpose else matrix)
    skip = draw(st.sets(st.integers(0, len(shape) - 1), max_size=2))
    return tensor, matrices, transpose, sorted(skip)


class TestOneKernel:
    @given(case=ttm_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_definition_mode_by_mode(self, case):
        tensor, matrices, transpose, skip = case
        expected, scale = tensor, np.abs(tensor)
        for mode, matrix in enumerate(matrices):
            if matrix is None or mode in skip:
                continue
            u = matrix.T if transpose else matrix
            expected = definition_product(expected, u, mode)
            scale = definition_product(scale, np.abs(u), mode)
        result = multi_ttm(tensor, matrices, transpose=transpose, skip=skip)
        assert result.shape == expected.shape
        for mode in range(tensor.ndim):
            np.testing.assert_array_less(
                np.abs(unfold(result, mode) - unfold(expected, mode)),
                1e-12 * unfold(scale, mode) + 1e-300,
            )

    @given(case=ttm_cases())
    @settings(max_examples=100, deadline=None)
    def test_hooi_last_product_is_bit_identical(self, case):
        tensor, _matrices, _transpose, _skip = case
        rng = np.random.default_rng(tensor.size)
        factors = [
            np.linalg.qr(rng.standard_normal((size, size)))[0][
                :, : max(1, size // 2)
            ]
            for size in tensor.shape
        ]
        last = tensor.ndim - 1
        leave_one_out = multi_ttm(tensor, factors, transpose=True,
                                  skip=[last])
        assert np.array_equal(
            ttm(leave_one_out, factors[-1].T, last),
            multi_ttm(tensor, factors, transpose=True),
        )

    @pytest.mark.parametrize("shape,ranks", [
        ((8, 8, 8, 8, 8), (3, 3, 3, 3, 3)),
        ((6, 7, 8, 9), (2, 4, 1, 3)),
        ((5, 1, 4), (2, 1, 4)),
    ])
    def test_slice_planes_row_equals_a_lone_slice(self, rng, shape, ranks):
        tucker = TuckerTensor(
            rng.standard_normal(ranks),
            [rng.standard_normal((s, r)) for s, r in zip(shape, ranks)],
        )
        engine = FactorEngine(tucker)
        for mode, size in enumerate(shape):
            indices = [size - 1, 0, size // 2, 0]
            planes, which = engine.slice_planes(mode, indices)
            for j, index in enumerate(indices):
                assert np.array_equal(
                    planes[which[j]], engine.slice(mode, index)
                )
            assert np.allclose(
                planes[which[0]],
                np.take(tucker.reconstruct(), size - 1, axis=mode),
            )


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
