"""EM-Tucker completion."""

import numpy as np
import pytest

from repro.exceptions import RankError, ShapeError
from repro.tensor import (
    SparseTensor,
    completion_accuracy,
    em_tucker,
)

from ..generators import random_low_rank


def observed_subset(truth, fraction, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random(truth.shape) < fraction
    coords = np.argwhere(mask)
    return SparseTensor(truth.shape, coords, truth[mask])


class TestEmTucker:
    def test_recovers_low_rank_from_half_observed(self):
        truth = random_low_rank((8, 8, 8), (2, 2, 2), seed=1)
        observed = observed_subset(truth, 0.5, seed=2)
        result = em_tucker(observed, (2, 2, 2), n_iter=100)
        assert completion_accuracy(result, truth) > 0.95

    def test_observed_cells_pinned(self):
        truth = random_low_rank((6, 6, 6), (2, 2, 2), seed=3)
        observed = observed_subset(truth, 0.3, seed=4)
        result = em_tucker(observed, (2, 2, 2), n_iter=5)
        for index, value in observed.items():
            assert result.completed[index] == pytest.approx(value)

    def test_more_iterations_never_hurt_much(self):
        truth = random_low_rank((6, 6, 6), (2, 2, 2), seed=5)
        observed = observed_subset(truth, 0.4, seed=6)
        short = em_tucker(observed, (2, 2, 2), n_iter=2)
        long = em_tucker(observed, (2, 2, 2), n_iter=40)
        assert completion_accuracy(long, truth) >= (
            completion_accuracy(short, truth) - 0.05
        )

    def test_convergence_flag(self):
        truth = random_low_rank((6, 6, 6), (1, 1, 1), seed=7)
        observed = observed_subset(truth, 0.6, seed=8)
        result = em_tucker(observed, (1, 1, 1), n_iter=200, tol=1e-4)
        assert result.converged
        assert result.n_iterations < 200

    def test_rejects_empty_observations(self):
        with pytest.raises(RankError):
            em_tucker(SparseTensor((4, 4)), (2, 2))

    def test_rejects_dense_input(self):
        with pytest.raises(ShapeError):
            em_tucker(np.zeros((4, 4)), (2, 2))

    def test_accuracy_shape_check(self):
        truth = random_low_rank((5, 5, 5), (1, 1, 1), seed=9)
        observed = observed_subset(truth, 0.5, seed=9)
        result = em_tucker(observed, (1, 1, 1), n_iter=3)
        with pytest.raises(ShapeError):
            completion_accuracy(result, truth[:-1])
