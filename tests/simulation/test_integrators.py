"""ODE integrators: order of accuracy, batching, failure modes."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulation import rk45, rk4_sampled
from repro.simulation.systems import DynamicalSystem, ParameterDef


def exponential(_t, y):
    return -y


def oscillator(_t, y):
    """Harmonic oscillator on a ``(2, B)`` state."""
    return np.array([y[1], -y[0]])


class BlowUp(DynamicalSystem):
    """``y' = y^2`` from ``y0 = 10``: infinite before ``t = 0.1``."""

    name = "blow_up"
    parameters = (ParameterDef("y0", low=1.0, high=20.0, default=10.0),)

    def initial_state(self, params):
        return np.stack([np.asarray(params["y0"], dtype=np.float64)])

    def derivative(self, params):
        return lambda _t, y: y**2


class TestRk4:
    def test_fourth_order_accuracy(self):
        y0 = np.ones((1, 1))
        coarse = rk4_sampled(exponential, y0, 0.0, 1.0, 20, np.arange(21))
        fine = rk4_sampled(exponential, y0, 0.0, 1.0, 40, np.arange(41))
        exact = np.exp(-1.0)
        ratio = abs(coarse[-1, 0, 0] - exact) / abs(fine[-1, 0, 0] - exact)
        assert 12 < ratio < 20  # ~2^4

    def test_oscillator_energy(self):
        y0 = np.array([[1.0, 0.6], [0.0, 0.8]])  # two runs, energy 1
        states = rk4_sampled(
            oscillator, y0, 0.0, 10.0, 2000, np.arange(2001)
        )
        energy = states[:, 0] ** 2 + states[:, 1] ** 2
        assert np.allclose(energy, 1.0, atol=1e-8)

    def test_rejects_bad_steps(self):
        with pytest.raises(SimulationError):
            rk4_sampled(exponential, np.ones((1, 1)), 0.0, 1.0, 0, [0])
        with pytest.raises(SimulationError):
            rk4_sampled(exponential, np.ones((1, 1)), 1.0, 0.0, 10, [0])

    def test_divergence_detected(self):
        """A diverged reference run fails loudly, naming its system."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError, match="blow_up"):
                BlowUp().simulate({"y0": 10.0})


class TestRk45:
    def test_matches_exact_solution(self):
        times, states = rk45(exponential, [1.0], 0.0, 2.0)
        assert times[-1] == pytest.approx(2.0)
        assert states[-1, 0] == pytest.approx(np.exp(-2.0), rel=1e-6)

    def test_agrees_with_rk4(self):
        y0 = np.array([[1.0], [0.0]])
        dense = rk4_sampled(oscillator, y0, 0.0, 5.0, 5000, [5000])
        _times, adaptive = rk45(oscillator, y0, 0.0, 5.0)
        assert np.allclose(adaptive[-1], dense[-1], atol=1e-5)


class TestRk4Sampled:
    def test_matches_full_rk4(self):
        """Recording a few steps gives exactly the states a run that
        records every step passes through."""
        y0 = np.array([[1.0, 0.5], [0.0, 0.5]])
        sample_steps = np.array([0, 7, 20])
        sampled = rk4_sampled(oscillator, y0, 0.0, 2.0, 20, sample_steps)
        assert sampled.shape == (3, 2, 2)
        full = rk4_sampled(oscillator, y0, 0.0, 2.0, 20, np.arange(21))
        assert np.array_equal(sampled, full[sample_steps])

    def test_rejects_unsorted_samples(self):
        with pytest.raises(SimulationError):
            rk4_sampled(
                lambda _t, y: -y, np.ones((1, 1)), 0.0, 1.0, 10,
                np.array([5, 2]),
            )

    def test_rejects_out_of_range_samples(self):
        with pytest.raises(SimulationError):
            rk4_sampled(
                lambda _t, y: -y, np.ones((1, 1)), 0.0, 1.0, 10,
                np.array([0, 11]),
            )

    def test_rejects_empty_samples(self):
        with pytest.raises(SimulationError):
            rk4_sampled(
                lambda _t, y: -y, np.ones((1, 1)), 0.0, 1.0, 10,
                np.array([], dtype=int),
            )

    def test_repeated_sample_steps(self):
        sampled = rk4_sampled(
            lambda _t, y: -y, np.ones((1, 1)), 0.0, 1.0, 10,
            np.array([0, 0, 10]),
        )
        assert np.allclose(sampled[0], sampled[1])
