"""Subspace comparison tools."""

import numpy as np
import pytest

from repro.analysis import (
    factor_recovery,
    principal_angles,
    subspace_affinity,
    truth_decomposition,
)
from repro.exceptions import ShapeError
from repro.tensor import hosvd

from ..generators import random_low_rank, random_orthonormal


class TestPrincipalAngles:
    def test_identical_subspaces(self):
        q = random_orthonormal(8, 3, seed=0)
        angles = principal_angles(q, q)
        assert np.allclose(angles, 0, atol=1e-7)

    def test_invariant_to_basis_change(self, rng):
        q = random_orthonormal(8, 3, seed=1)
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        angles = principal_angles(q, q @ rotation)
        assert np.allclose(angles, 0, atol=1e-7)

    def test_orthogonal_subspaces(self):
        a = np.eye(6)[:, :2]
        b = np.eye(6)[:, 2:4]
        angles = principal_angles(a, b)
        assert np.allclose(angles, np.pi / 2, atol=1e-10)

    def test_partial_overlap(self):
        a = np.eye(6)[:, :2]
        b = np.eye(6)[:, 1:3]  # shares one direction
        angles = principal_angles(a, b)
        assert angles[0] == pytest.approx(0.0, abs=1e-10)
        assert angles[1] == pytest.approx(np.pi / 2, abs=1e-10)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            principal_angles(np.eye(4)[:, :2], np.eye(5)[:, :2])


class TestSubspaceAffinity:
    def test_bounds(self):
        a = np.eye(6)[:, :2]
        assert subspace_affinity(a, a) == pytest.approx(1.0)
        b = np.eye(6)[:, 2:4]
        assert subspace_affinity(a, b) == pytest.approx(0.0, abs=1e-10)

    def test_partial(self):
        a = np.eye(6)[:, :2]
        b = np.eye(6)[:, 1:3]
        assert subspace_affinity(a, b) == pytest.approx(0.5)


class TestFactorRecovery:
    def test_self_recovery_is_perfect(self):
        tensor = random_low_rank((6, 7, 8), (2, 2, 2), seed=2)
        model = hosvd(tensor, (2, 2, 2))
        recoveries = factor_recovery(model, model)
        assert all(r.affinity == pytest.approx(1.0) for r in recoveries)
        assert all(r.worst_angle_degrees < 1e-4 for r in recoveries)

    def test_mode_map_permutes(self):
        tensor = random_low_rank((6, 7, 8), (2, 2, 2), seed=3)
        model = hosvd(tensor, (2, 2, 2))
        permuted = hosvd(np.transpose(tensor, (2, 0, 1)), (2, 2, 2))
        recoveries = factor_recovery(permuted, model, mode_map=[2, 0, 1])
        assert all(r.affinity > 0.999 for r in recoveries)

    def test_rejects_bad_mode_map(self):
        tensor = random_low_rank((5, 5, 5), (2, 2, 2), seed=4)
        model = hosvd(tensor, (2, 2, 2))
        with pytest.raises(ShapeError):
            factor_recovery(model, model, mode_map=[0, 1])

    def test_truth_decomposition(self):
        tensor = random_low_rank((5, 5, 5), (2, 2, 2), seed=5)
        reference = truth_decomposition(tensor, (2, 2, 2))
        assert reference.relative_error(tensor) < 1e-9
