"""The 5-parameter pendulum (gravity as a simulation parameter)."""

import numpy as np
import pytest

from repro.simulation import (
    DoublePendulum,
    DoublePendulumG,
    ParameterSpace,
    make_system,
)


class TestDoublePendulumG:
    def test_five_parameters(self):
        system = DoublePendulumG()
        assert system.n_parameters == 5
        assert system.parameter_names == ("phi1", "m1", "phi2", "m2", "g")

    def test_registered(self):
        assert make_system("double_pendulum_g").name == "double_pendulum_g"

    def test_six_mode_space(self):
        space = ParameterSpace(DoublePendulumG(), resolution=4)
        assert space.n_modes == 6
        assert space.shape == (4,) * 6

    def test_matches_fixed_gravity_parent(self):
        """At g = 9.81 the 5-parameter system must reproduce the
        4-parameter system's trajectories exactly."""
        parent = DoublePendulum(gravity=9.81)
        child = DoublePendulumG()
        params4 = {"phi1": 0.7, "m1": 1.2, "phi2": 1.1, "m2": 0.8}
        params5 = {**params4, "g": 9.81}
        assert np.allclose(
            parent.simulate(params4), child.simulate(params5)
        )

    def test_gravity_changes_dynamics(self):
        system = DoublePendulumG()
        base = {"phi1": 0.7, "m1": 1.2, "phi2": 1.1, "m2": 0.8}
        low_g = system.simulate({**base, "g": 3.0})
        high_g = system.simulate({**base, "g": 15.0})
        assert not np.allclose(low_g, high_g)
        # Higher gravity -> faster oscillation -> earlier zero crossing
        first_cross = lambda states: np.argmax(np.diff(np.sign(states[:, 0])) != 0)
        assert first_cross(high_g) < first_cross(low_g)

    def test_batch_matches_scalar(self):
        """Each column of a batch evaluates as that run alone."""
        system = DoublePendulumG()
        base = {"phi1": 0.7, "m1": 1.2, "phi2": 1.1, "m2": 0.8, "g": 6.0}
        other = {k: v * 1.1 for k, v in base.items()}
        params = {k: np.array([base[k], other[k]]) for k in base}
        batched = system.derivative(params)(0.0, system.initial_state(params))
        for i, p in enumerate([base, other]):
            one = {k: np.array([v]) for k, v in p.items()}
            alone = system.derivative(one)(0.0, system.initial_state(one))
            assert np.array_equal(batched[:, i], alone[:, 0])

    def test_k2_partition(self):
        from repro.sampling import PFPartition

        space = ParameterSpace(DoublePendulumG(), resolution=4)
        part = PFPartition.for_space(space, pivot=("g", "t"))
        assert part.k == 2
        assert part.pivot_modes == (4, 5)
        assert part.s1_free == (0, 1)
        assert part.s2_free == (2, 3)

    def test_duplicate_pivots_rejected(self):
        from repro.exceptions import PartitionError
        from repro.sampling import PFPartition

        space = ParameterSpace(DoublePendulumG(), resolution=4)
        with pytest.raises(PartitionError):
            PFPartition.for_space(space, pivot=("t", "t"))
