"""Core recovery: materialized vs closed form."""

import numpy as np
import pytest

from repro.core import dense_join_from_subs, lazy_core, materialized_core
from repro.exceptions import StitchError
from repro.sampling import PFPartition

SHAPE = (3, 4, 3, 4, 5)


def partition():
    return PFPartition(SHAPE, (4,), (0, 1), (2, 3))


def random_setup(rng, part):
    x1 = rng.standard_normal(part.sub_shape(1))
    x2 = rng.standard_normal(part.sub_shape(2))
    ranks = [2, 2, 2, 2, 2]
    factors = []
    for axis, mode in enumerate(part.join_modes):
        rows = part.shape[mode]
        factors.append(rng.standard_normal((rows, ranks[axis])))
    return x1, x2, factors


class TestDenseJoin:
    def test_closed_form_values(self, rng):
        part = partition()
        x1, x2, _ = random_setup(rng, part)
        joined = dense_join_from_subs(x1, x2, part)
        assert joined.shape == part.join_shape
        assert joined[2, 0, 1, 2, 3] == pytest.approx(
            0.5 * (x1[2, 0, 1] + x2[2, 2, 3])
        )

    def test_rejects_pivot_mismatch(self, rng):
        part = partition()
        x1 = rng.standard_normal((5, 3, 4))
        x2 = rng.standard_normal((4, 3, 4))
        with pytest.raises(StitchError):
            dense_join_from_subs(x1, x2, part)


class TestLazyCore:
    def test_matches_materialized(self, rng):
        part = partition()
        x1, x2, factors = random_setup(rng, part)
        joined = dense_join_from_subs(x1, x2, part)
        direct = materialized_core(joined, factors)
        lazy = lazy_core([x1, x2], factors, part)
        assert np.allclose(direct, lazy)

    def test_multi_pivot(self, rng):
        part = PFPartition((3, 4, 3, 4, 5, 2), (4, 5), (0, 1), (2, 3))
        x1 = rng.standard_normal(part.sub_shape(1))
        x2 = rng.standard_normal(part.sub_shape(2))
        factors = [
            rng.standard_normal((part.shape[m], 2)) for m in part.join_modes
        ]
        joined = dense_join_from_subs(x1, x2, part)
        assert np.allclose(
            materialized_core(joined, factors),
            lazy_core([x1, x2], factors, part),
        )

    def test_rejects_wrong_factor_count(self, rng):
        part = partition()
        x1, x2, factors = random_setup(rng, part)
        with pytest.raises(StitchError):
            lazy_core([x1, x2], factors[:-1], part)

    def test_rejects_wrong_sub_shape(self, rng):
        part = partition()
        x1, x2, factors = random_setup(rng, part)
        with pytest.raises(StitchError):
            lazy_core([x1[:-1], x2], factors, part)

