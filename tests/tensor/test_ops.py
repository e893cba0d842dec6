"""Outer products and norm helpers."""

import numpy as np
import pytest

from repro.tensor import frobenius_norm, outer, relative_error


class TestOuter:
    def test_rank_one(self, rng):
        u, v, w = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(2)
        tensor = outer([u, v, w])
        assert tensor.shape == (3, 4, 2)
        assert tensor[1, 2, 1] == pytest.approx(u[1] * v[2] * w[1])

    def test_single_vector(self):
        assert np.allclose(outer([np.array([1.0, 2.0])]), [1.0, 2.0])


class TestNorms:
    def test_frobenius(self, rng):
        tensor = rng.standard_normal((3, 4, 5))
        assert frobenius_norm(tensor) == pytest.approx(
            np.sqrt((tensor**2).sum())
        )

    def test_relative_error_zero_for_equal(self, rng):
        tensor = rng.standard_normal((3, 3))
        assert relative_error(tensor, tensor) == 0.0

    def test_relative_error_scale(self, rng):
        tensor = rng.standard_normal((3, 3))
        assert relative_error(np.zeros_like(tensor), tensor) == pytest.approx(1.0)

    def test_relative_error_zero_reference(self):
        assert relative_error(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
        assert relative_error(np.ones((2, 2)), np.zeros((2, 2))) == np.inf
