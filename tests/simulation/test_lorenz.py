"""Lorenz system checks."""

import numpy as np
import pytest

from repro.simulation import Lorenz, rk45


class TestLorenz:
    def test_fixed_point_origin_branch(self):
        """For rho < 1 the origin attracts; trajectories decay."""
        system = Lorenz()
        params = {
            "z0": np.array([1.0]),
            "sigma": np.array([10.0]),
            "beta": np.array([8.0 / 3.0]),
            "rho": np.array([0.5]),
        }
        deriv = system.derivative(params)
        _t, states = rk45(deriv, system.initial_state(params), 0.0, 30.0)
        assert np.linalg.norm(states[-1]) < 1e-3

    def test_nontrivial_fixed_point(self):
        """C+ = (sqrt(beta(rho-1)), sqrt(beta(rho-1)), rho-1) is an
        equilibrium of the flow."""
        system = Lorenz()
        sigma, beta, rho = 10.0, 8.0 / 3.0, 28.0
        deriv = system.derivative(
            {"z0": 0.0, "sigma": sigma, "beta": beta, "rho": rho}
        )
        c = np.sqrt(beta * (rho - 1))
        state = np.array([c, c, rho - 1])  # one run: float params
        assert np.allclose(deriv(0.0, state), 0.0, atol=1e-12)

    def test_sensitive_dependence(self):
        """Chaos: nearby initial conditions diverge over time."""
        system = Lorenz()
        system.t_end = 15.0  # the default horizon is pre-divergence
        system.n_steps = 3000
        base = {"z0": 15.0, "sigma": 10.0, "beta": 8.0 / 3.0, "rho": 28.0}
        a = system.simulate(base)
        b = system.simulate({**base, "z0": 15.0001})
        start_gap = np.linalg.norm(a[0] - b[0])
        end_gap = np.linalg.norm(a[-1] - b[-1])
        assert end_gap > 10 * start_gap

    def test_initial_state_uses_z0(self):
        system = Lorenz(x0=2.0, y0=3.0)
        state = system.initial_state({"z0": np.array([7.0, 8.0])})
        assert np.allclose(state, [[2.0, 2.0], [3.0, 3.0], [7.0, 8.0]])

    def test_derivative_vectorizes_params(self):
        system = Lorenz()
        params = {
            "z0": np.array([1.0, 2.0]),
            "sigma": np.array([10.0, 5.0]),
            "beta": np.array([2.0, 3.0]),
            "rho": np.array([28.0, 20.0]),
        }
        deriv = system.derivative(params)
        # one column per run: (1, 2, 3) and (4, 5, 6)
        states = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        out = deriv(0.0, states)
        assert out[0, 0] == pytest.approx(10.0 * (2.0 - 1.0))
        assert out[0, 1] == pytest.approx(5.0 * (5.0 - 4.0))
        assert out[2, 1] == pytest.approx(4.0 * 5.0 - 3.0 * 6.0)
