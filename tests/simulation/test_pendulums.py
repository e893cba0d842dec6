"""Physics checks: the pendulum equations of motion are right.

Each check runs a batch of at least two runs and checks every column.
"""

import numpy as np
import pytest

from repro.simulation import (
    DoublePendulum,
    TriplePendulum,
    chain_pendulum_derivative,
    rk4_sampled,
)


def _integrate(system, params, t_end, n_steps, every=1):
    """States ``(samples, state_dim, B)`` of a batch, every ``every``
    steps."""
    return rk4_sampled(
        system.derivative(params),
        system.initial_state(params),
        0.0,
        t_end,
        n_steps,
        np.arange(0, n_steps + 1, every),
    )


class TestDoublePendulumPhysics:
    def test_energy_conserved(self):
        system = DoublePendulum()
        params = {
            "phi1": np.array([0.4, 1.5]),
            "m1": np.array([1.3, 0.6]),
            "phi2": np.array([0.9, -0.3]),
            "m2": np.array([0.7, 2.2]),
        }
        states = _integrate(system, params, 5.0, 20_000, every=1000)
        energies = np.array([system.total_energy(params, s) for s in states])
        assert energies.shape == (21, 2)
        assert np.allclose(energies, energies[0], atol=1e-5)

    def test_small_angle_frequency(self):
        """In the small-angle, equal-mass limit the slow normal mode of
        the equal-length double pendulum has frequency
        ``sqrt((2 - sqrt(2)) * g / L)``."""
        system = DoublePendulum(gravity=9.81, length=1.0)
        # Excite (approximately) the in-phase normal mode.
        amplitude = np.array([0.02, 0.01])
        params = {
            "phi1": amplitude,
            "m1": np.ones(2),
            "phi2": amplitude * np.sqrt(2),
            "m2": np.ones(2),
        }
        omega = np.sqrt((2 - np.sqrt(2)) * 9.81)
        period = 2 * np.pi / omega
        states = _integrate(system, params, period, 4000, every=4000)
        # After one slow-mode period the state returns near the start.
        assert (np.abs(states[-1, 0] - amplitude) < 0.1 * amplitude).all()

    def test_matches_chain_formulation(self):
        """The closed-form double-pendulum RHS must agree with the
        generic n-link chain formulation (friction = 0)."""
        system = DoublePendulum()
        params = {
            "phi1": np.array([0.8, 0.2]),
            "m1": np.array([2.0, 2.0]),
            "phi2": np.array([1.1, -0.5]),
            "m2": np.array([0.6, 0.6]),
        }
        closed_form = system.derivative(params)
        chain = chain_pendulum_derivative(
            masses=[2.0, 0.6], length=1.0, gravity=9.81, friction=0.0
        )
        # rows (theta1, omega1, theta2, omega2), one column per run
        state = np.array([[0.8, 0.2], [0.3, -1.0], [1.1, -0.5], [-0.2, 0.4]])
        ours = closed_form(0.0, state)
        theirs = chain(0.0, state[[0, 2, 1, 3]])  # (thetas, omegas)
        assert ours[1] == pytest.approx(theirs[2], rel=1e-10)  # alpha1
        assert ours[3] == pytest.approx(theirs[3], rel=1e-10)  # alpha2


class TestTriplePendulumPhysics:
    def test_friction_dissipates(self):
        """With friction the joint speeds decay; without, they do not."""
        system = TriplePendulum()
        system.t_end = 15.0  # long enough for the damping to bite
        system.n_steps = 600
        base = {"phi1": 0.5, "phi2": 0.5, "phi3": 0.5}
        frictionless = system.simulate({**base, "f": 0.0})
        damped = system.simulate({**base, "f": 1.0})
        speed = lambda states: np.abs(states[:, 3:]).sum(axis=1)
        assert speed(damped)[-1] < 0.2 * speed(frictionless).max()

    def test_equilibrium_is_fixed_point(self):
        system = TriplePendulum()
        deriv = system.derivative({"f": np.array([0.3, 0.0])})
        assert np.allclose(deriv(0.0, np.zeros((6, 2))), 0.0)

    def test_small_angle_stays_bounded(self):
        system = TriplePendulum()
        states = system.simulate(
            {"phi1": 0.05, "phi2": 0.05, "phi3": 0.05, "f": 0.0}
        )
        assert np.abs(states[:, :3]).max() < 0.2


class TestChainDerivative:
    def test_single_pendulum_reduces_to_textbook(self):
        deriv = chain_pendulum_derivative([1.0], 1.0, 9.81, 0.0)
        theta = np.array([0.3, -1.2])
        out = deriv(0.0, np.array([theta, np.zeros(2)]))
        assert out[1] == pytest.approx(-9.81 * np.sin(theta))

    def test_friction_enters_linearly(self):
        state = np.array([0.4, 0.2, 0.0, 1.0, -0.5, 0.3])[:, None]
        d0, d1, d2 = (
            chain_pendulum_derivative([1.0] * 3, 1.0, 9.81, f)(0.0, state)
            for f in (0.0, 0.5, 1.0)
        )
        assert np.allclose(d2 - d1, d1 - d0, atol=1e-10)
        # one friction per run: each column moves as if run alone
        per_run = chain_pendulum_derivative(
            [1.0] * 3, 1.0, 9.81, np.array([0.0, 0.5, 1.0])
        )(0.0, np.repeat(state, 3, axis=1))
        assert np.allclose(per_run, np.hstack([d0, d1, d2]), atol=1e-12)
