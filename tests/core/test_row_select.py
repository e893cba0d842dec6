"""ROW_SELECT (Algorithm 5) and the pivot-factor combiners."""

import numpy as np
import pytest

from repro.core import average_factors, row_select, row_select_source
from repro.core.join_tensor import dense_join_from_subs
from repro.core.row_select import align_columns
from repro.exceptions import ShapeError
from repro.tensor import (
    leading_left_singular_vectors,
    multi_ttm,
    truncated_svd,
    unfold,
)


class TestAlignColumns:
    def test_flips_anticorrelated_columns(self, rng):
        u1 = rng.standard_normal((6, 3))
        u2 = u1.copy()
        u2[:, 1] *= -1
        aligned = align_columns(u1, u2)
        assert np.allclose(aligned, u1)

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            align_columns(rng.standard_normal((4, 2)), rng.standard_normal((5, 2)))


class TestAverageFactors:
    def test_average_of_identical_is_identity(self, rng):
        u = rng.standard_normal((5, 2))
        assert np.allclose(average_factors(u, u), u)

    def test_sign_flip_does_not_cancel(self, rng):
        u = rng.standard_normal((5, 2))
        averaged = average_factors(u, -u)
        assert np.allclose(averaged, u)  # alignment flips -u back

    def test_plain_average_when_aligned(self, rng):
        u1 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        u2 = np.array([[3.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        assert np.allclose(average_factors(u1, u2), 0.5 * (u1 + u2))


class TestRowSelect:
    def test_picks_higher_energy_row(self):
        u1 = np.array([[2.0, 0.0], [0.1, 0.0]])
        u2 = np.array([[0.5, 0.0], [1.0, 0.0]])
        selected = row_select(u1, u2)
        assert np.allclose(selected[0], u1[0])
        assert np.allclose(selected[1], u2[1])

    def test_tie_goes_to_first(self):
        u = np.array([[1.0, 0.0]])
        assert np.allclose(row_select(u, u.copy()), u)

    def test_spectral_weighting_changes_choice(self):
        # Row norms equal in U, but singular values make side 1 the
        # higher-energy representation.
        u1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        u2 = np.array([[1.0, 0.0], [0.0, 1.0]]) * 0.999
        s1 = np.array([10.0, 10.0])
        s2 = np.array([1.0, 1.0])
        selected = row_select(u1, u2, s1, s2)
        assert np.allclose(selected, u1)

    def test_rejects_bad_singular_values(self, rng):
        u = rng.standard_normal((4, 2))
        with pytest.raises(ShapeError):
            row_select(u, u, np.ones(3), np.ones(2))

    def test_spectral_energy_fits_join_at_least_as_well(self, pendulum_subs):
        """Algorithm 5's row "energy" read on ``U @ diag(s)`` fits the
        stitched join tensor at least as well as plain ``U`` row norms
        (the reading under which SELECT fell below AVG)."""
        partition, x1, x2 = pendulum_subs
        joined = dense_join_from_subs(x1, x2, partition)
        rank = 3
        free_factors = [
            leading_left_singular_vectors(unfold(x, axis), rank)
            for x in (x1, x2)
            for axis in (1, 2)
        ]
        u1, s1, _ = truncated_svd(unfold(x1, 0), rank)
        u2, s2, _ = truncated_svd(unfold(x2, 0), rank)

        def fit(pivot_factor):
            factors = [pivot_factor] + free_factors
            core = multi_ttm(joined, factors, transpose=True)
            residual = multi_ttm(core, factors) - joined
            return 1 - np.linalg.norm(residual) / np.linalg.norm(joined)

        spectral = fit(row_select(u1, u2, s1, s2))
        plain = fit(row_select(u1, u2))
        assert min(spectral, plain) > 0
        assert spectral >= plain - 1e-9

    def test_output_rows_come_from_inputs(self, rng):
        u1 = rng.standard_normal((6, 3))
        u2 = rng.standard_normal((6, 3))
        aligned_u2 = align_columns(u1, u2)
        selected = row_select(u1, u2)
        for i in range(6):
            from_u1 = np.allclose(selected[i], u1[i])
            from_u2 = np.allclose(selected[i], aligned_u2[i])
            assert from_u1 or from_u2


class TestRowSelectSource:
    def test_source_labels(self):
        u1 = np.array([[2.0, 0.0], [0.1, 0.0]])
        u2 = np.array([[0.5, 0.0], [1.0, 0.0]])
        assert row_select_source(u1, u2).tolist() == [1, 2]
