"""Pin each right-hand side to its literal formula, bit for bit.

Every ``derivative`` binds its parameter-only factors once, outside the
per-step closure, and reuses repeated state subexpressions.  That is only
safe while each hoisted factor keeps the association of the formula it
came from: a re-associated product rounds differently and moves every
golden value.  The references below are the formulas as written before
any hoisting, kept verbatim, and each is compared with ``np.array_equal``
(not a tolerance) on random states, on batches of several sizes and on
float parameters.
"""

import numpy as np
import pytest

from repro.simulation import (
    DoublePendulum,
    DoublePendulumG,
    EpidemicSEIR,
    TriplePendulum,
    chain_pendulum_derivative,
)

BATCHES = (1, 3, 127)


def double_pendulum_formula(m1, m2, g, length, state):
    theta1, omega1, theta2, omega2 = state
    delta = theta1 - theta2
    cos_d = np.cos(delta)
    sin_d = np.sin(delta)
    denom = length * (2 * m1 + m2 - m2 * np.cos(2 * delta))
    alpha1 = (
        -g * (2 * m1 + m2) * np.sin(theta1)
        - m2 * g * np.sin(theta1 - 2 * theta2)
        - 2
        * sin_d
        * m2
        * (omega2**2 * length + omega1**2 * length * cos_d)
    ) / denom
    alpha2 = (
        2
        * sin_d
        * (
            omega1**2 * length * (m1 + m2)
            + g * (m1 + m2) * np.cos(theta1)
            + omega2**2 * length * m2 * cos_d
        )
    ) / denom
    return np.array([omega1, alpha1, omega2, alpha2])


def seir_formula(beta, sigma, gamma, state):
    s, e, i, _r = state
    new_infections = beta * s * i
    return np.array(
        [
            -new_infections,
            new_infections - sigma * e,
            sigma * e - gamma * i,
            gamma * i,
        ]
    )


def chain_formula(masses, length, gravity, friction, state):
    masses = np.asarray(masses, dtype=np.float64)
    n = masses.shape[0]
    tail_mass = np.cumsum(masses[::-1])[::-1]
    coupling = np.minimum.outer(tail_mass, tail_mass)
    theta = state[:n]
    omega = state[n:]
    diff = theta[:, None] - theta[None, :]
    pull = coupling[:, :, None] * length * np.sin(diff) * omega**2
    rhs = (
        -sum(pull[:, j] for j in range(n))
        - gravity * tail_mass[:, None] * np.sin(theta)
        - friction * omega
    )
    mass_matrix = coupling[:, :, None] * length * np.cos(diff)
    alpha = np.linalg.solve(
        mass_matrix.transpose(2, 0, 1), rhs.T[:, :, None]
    )[:, :, 0]
    return np.concatenate([omega, alpha.T])


def random_params(system, rng, batch):
    """Per-run parameter arrays drawn over each range; ``batch=None``
    gives one run's float parameters."""
    size = 1 if batch is None else batch
    params = {
        p.name: rng.uniform(p.low, p.high, size=size)
        for p in system.parameters
    }
    if batch is None:
        return {name: float(value[0]) for name, value in params.items()}
    return params


def pendulum_state(rng, dim, batch):
    """Angles over a full turn and signed velocities, for ``dim // 2``
    links; ``batch=None`` gives one run's ``(dim,)`` state."""
    shape = (dim // 2,) if batch is None else (dim // 2, batch)
    theta = rng.uniform(-np.pi, np.pi, size=shape)
    omega = rng.normal(scale=3.0, size=shape)
    return np.concatenate([theta, omega])


@pytest.mark.parametrize("batch", BATCHES + (None,))
@pytest.mark.parametrize("system", [DoublePendulum(), DoublePendulumG()])
def test_double_pendulum(system, batch):
    rng = np.random.default_rng(batch or 0)
    for _ in range(20):
        params = random_params(system, rng, batch)
        # reorder to rows (theta1, omega1, theta2, omega2)
        state = pendulum_state(rng, 4, batch)[[0, 2, 1, 3]]
        got = system.derivative(params)(0.0, state)
        expected = double_pendulum_formula(
            params["m1"], params["m2"], system.gravity_of(params),
            system.length, state,
        )
        assert np.array_equal(got, expected)


def test_double_pendulum_g_uses_each_runs_gravity():
    system = DoublePendulumG()
    rng = np.random.default_rng(7)
    params = random_params(system, rng, 3)
    state = pendulum_state(rng, 4, 3)[[0, 2, 1, 3]]
    got = system.derivative(params)(0.0, state)
    for run in range(3):
        expected = double_pendulum_formula(
            params["m1"][run], params["m2"][run], params["g"][run],
            system.length, state[:, run],
        )
        assert np.array_equal(got[:, run], expected)


@pytest.mark.parametrize("batch", BATCHES + (None,))
def test_epidemic_seir(batch):
    system = EpidemicSEIR()
    rng = np.random.default_rng(batch or 0)
    for _ in range(20):
        params = random_params(system, rng, batch)
        shape = (4,) if batch is None else (4, batch)
        state = rng.dirichlet(np.ones(4), size=shape[1:]).T.reshape(shape)
        got = system.derivative(params)(0.0, state)
        expected = seir_formula(
            params["beta"], params["sigma"], params["gamma"], state
        )
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize(
    "masses", [(1.0, 2.5), (1.0, 1.0, 1.0), (0.7, 1.3, 2.1)]
)
def test_chain_pendulum(masses, batch):
    rng = np.random.default_rng(batch)
    n = len(masses)
    for friction in (0.3, rng.uniform(0.0, 1.0, size=batch)):
        state = pendulum_state(rng, 2 * n, batch)
        got = chain_pendulum_derivative(masses, 1.3, 9.81, friction)(
            0.0, state
        )
        expected = chain_formula(masses, 1.3, 9.81, friction, state)
        assert np.array_equal(got, expected)


def test_triple_pendulum_ensemble_derivative_is_the_chain():
    system = TriplePendulum()
    rng = np.random.default_rng(3)
    params = random_params(system, rng, 127)
    state = pendulum_state(rng, 6, 127)
    got = system.derivative(params)(0.0, state)
    expected = chain_formula(
        [system.mass] * 3, system.length, system.gravity, params["f"], state
    )
    assert np.array_equal(got, expected)
