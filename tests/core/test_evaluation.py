"""Accuracy metric and the conventional baseline path."""

import numpy as np
import pytest

from repro.core import accuracy, decompose_sample
from repro.exceptions import ShapeError
from repro.sampling import RandomSampler, SampleSet

from ..generators import random_low_rank


class TestAccuracy:
    def test_perfect(self, rng):
        truth = rng.standard_normal((4, 4))
        assert accuracy(truth, truth) == pytest.approx(1.0)

    def test_zero_reconstruction(self, rng):
        truth = rng.standard_normal((4, 4))
        assert accuracy(np.zeros_like(truth), truth) == pytest.approx(0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            accuracy(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_rejects_zero_truth(self):
        with pytest.raises(ShapeError):
            accuracy(np.ones((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_truth(self, rng, bad):
        truth = rng.standard_normal((4, 4))
        truth[1, 2] = bad
        with pytest.raises(ShapeError, match="non-finite"):
            accuracy(np.zeros_like(truth), truth)


class TestDecomposeSample:
    def test_full_sampling_of_low_rank_is_exact(self):
        truth = random_low_rank((5, 5, 5), (2, 2, 2), seed=0)
        coords = np.stack(
            np.unravel_index(np.arange(truth.size), truth.shape), axis=1
        )
        sample = SampleSet(truth.shape, coords)
        result = decompose_sample(truth, sample, [2, 2, 2])
        assert result.accuracy(truth) > 1 - 1e-9

    def test_sparse_sampling_recovers_little(self, rng):
        truth = rng.standard_normal((6, 6, 6, 6)) + 5.0
        sample = RandomSampler(seed=0).sample(truth.shape, 20)
        result = decompose_sample(truth, sample, [2] * 4)
        assert result.accuracy(truth) < 0.2

    def test_ranks_clipped(self, rng):
        truth = rng.standard_normal((3, 3, 3))
        sample = RandomSampler(seed=0).sample(truth.shape, 10)
        result = decompose_sample(truth, sample, [9, 9, 9])
        assert all(r <= 3 for r in result.tucker.rank)

    def test_timing_recorded(self, rng):
        truth = rng.standard_normal((4, 4, 4))
        sample = RandomSampler(seed=0).sample(truth.shape, 10)
        result = decompose_sample(truth, sample, [2, 2, 2])
        assert result.decompose_seconds >= 0

    def test_rejects_shape_mismatch(self, rng):
        truth = rng.standard_normal((4, 4))
        sample = RandomSampler(seed=0).sample((5, 5), 5)
        with pytest.raises(ShapeError):
            decompose_sample(truth, sample, [2, 2])
