"""Cross-mode pattern extraction."""

import numpy as np
import pytest

from repro.analysis import (
    core_energy_spectrum,
    describe_patterns,
    dominant_patterns,
    energy_rank,
)
from repro.exceptions import ShapeError
from repro.tensor import TuckerTensor, hosvd

from ..generators import random_low_rank


@pytest.fixture()
def model(rng):
    tensor = random_low_rank((6, 6, 6), (3, 3, 3), seed=4)
    return hosvd(tensor, (3, 3, 3))


class TestCoreEnergySpectrum:
    def test_sums_to_one(self, model):
        spectrum = core_energy_spectrum(model)
        assert spectrum.sum() == pytest.approx(1.0)
        assert (np.diff(spectrum) <= 1e-15).all()

    def test_rejects_zero_core(self):
        model = TuckerTensor(np.zeros((2, 2)), [np.eye(3, 2), np.eye(3, 2)])
        with pytest.raises(ShapeError):
            core_energy_spectrum(model)


class TestEnergyRank:
    def test_monotone_in_threshold(self, model):
        assert energy_rank(model, 0.5) <= energy_rank(model, 0.99)

    def test_full_threshold_bounded_by_core_size(self, model):
        assert energy_rank(model, 1.0) <= model.core.size

    def test_rejects_bad_threshold(self, model):
        with pytest.raises(ShapeError):
            energy_rank(model, 0.0)


class TestDominantPatterns:
    def test_count_and_ordering(self, model):
        patterns = dominant_patterns(model, count=4)
        assert len(patterns) == 4
        strengths = [abs(p.strength) for p in patterns]
        assert strengths == sorted(strengths, reverse=True)

    def test_shares_bounded(self, model):
        patterns = dominant_patterns(model, count=3)
        assert all(0 <= p.share <= 1 for p in patterns)

    def test_anchors_reference_real_indices(self, model):
        for pattern in dominant_patterns(model, count=2):
            assert len(pattern.anchors) == model.ndim
            for mode, (index, _loading) in enumerate(pattern.anchors):
                assert 0 <= index < model.shape[mode]

    def test_superdiagonal_core_patterns(self):
        """A diagonal core must yield the diagonal as top patterns."""
        core = np.zeros((2, 2, 2))
        core[0, 0, 0] = 10.0
        core[1, 1, 1] = 5.0
        factors = [np.eye(4, 2) for _ in range(3)]
        model = TuckerTensor(core, factors)
        patterns = dominant_patterns(model, count=2)
        assert patterns[0].components == (0, 0, 0)
        assert patterns[1].components == (1, 1, 1)
        assert patterns[0].share == pytest.approx(100 / 125)

    def test_rejects_bad_count(self, model):
        with pytest.raises(ShapeError):
            dominant_patterns(model, count=0)


class TestDescribe:
    def test_render_contains_names(self, model):
        patterns = dominant_patterns(model, count=2)
        text = describe_patterns(patterns, mode_names=["x", "y", "z"])
        assert "#1" in text and "#2" in text
        assert "x@" in text

    def test_render_without_names(self, model):
        text = describe_patterns(dominant_patterns(model, count=1))
        assert "mode0@" in text
