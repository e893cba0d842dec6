"""DynamicalSystem base behaviour and ParameterDef."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulation import (
    SYSTEMS,
    DoublePendulum,
    Lorenz,
    ParameterDef,
    TriplePendulum,
    make_system,
    rk4_sampled,
)


class TestParameterDef:
    def test_grid(self):
        param = ParameterDef("x", low=0.0, high=1.0, default=0.5)
        grid = param.grid(5)
        assert np.allclose(grid, [0, 0.25, 0.5, 0.75, 1.0])

    def test_grid_resolution_one_is_default(self):
        param = ParameterDef("x", low=0.0, high=1.0, default=0.3)
        assert np.allclose(param.grid(1), [0.3])

    def test_rejects_bad_range(self):
        with pytest.raises(SimulationError):
            ParameterDef("x", low=1.0, high=0.0, default=0.5)

    def test_rejects_default_outside_range(self):
        with pytest.raises(SimulationError):
            ParameterDef("x", low=0.0, high=1.0, default=2.0)

    def test_rejects_bad_resolution(self):
        param = ParameterDef("x", low=0.0, high=1.0, default=0.5)
        with pytest.raises(SimulationError):
            param.grid(0)


class TestSystemRegistry:
    def test_make_system(self):
        assert make_system("lorenz").name == "lorenz"
        assert make_system("double_pendulum").n_parameters == 4

    def test_unknown_system(self):
        with pytest.raises(KeyError):
            make_system("quintuple_pendulum")


@pytest.mark.parametrize(
    "system_cls", [DoublePendulum, TriplePendulum, Lorenz]
)
class TestSystemInterface:
    def test_four_parameters(self, system_cls):
        system = system_cls()
        assert system.n_parameters == 4
        assert len(system.parameter_names) == 4

    def test_default_params_simulate(self, system_cls):
        system = system_cls()
        states = system.simulate(system.default_params())
        assert states.shape[0] == system.n_steps + 1
        assert np.isfinite(states).all()

    def test_resolve(self, system_cls):
        system = system_cls()
        values = [p.default for p in system.parameters]
        params = system.resolve(values)
        assert set(params) == set(system.parameter_names)

    def test_resolve_rejects_wrong_length(self, system_cls):
        with pytest.raises(SimulationError):
            system_cls().resolve([1.0])

    def test_simulate_rejects_missing_params(self, system_cls):
        system = system_cls()
        with pytest.raises(SimulationError):
            system.simulate({})

    def test_time_grid(self, system_cls):
        system = system_cls()
        grid = system.time_grid(5)
        assert grid[0] == 0
        assert grid[-1] == system.n_steps
        assert (np.diff(grid) > 0).all()

    def test_batch_matches_scalar(self, system_cls):
        """Each column of a batch evaluates as that run alone."""
        system = system_cls()
        defaults = system.default_params()
        shifted = {
            k: v * 1.05 if v != 0 else 0.01 for k, v in defaults.items()
        }
        params = {
            k: np.array([defaults[k], shifted[k]]) for k in defaults
        }
        batched = system.derivative(params)(0.0, system.initial_state(params))
        for i, p in enumerate([defaults, shifted]):
            one = {k: np.array([v]) for k, v in p.items()}
            alone = system.derivative(one)(0.0, system.initial_state(one))
            assert np.array_equal(batched[:, i], alone[:, 0])


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_reference_run_matches_its_ensemble_column(name):
    """The reference run and the ensemble run at the same parameters
    use the same arithmetic, so their states agree bit for bit."""
    system = SYSTEMS[name]()
    # the default observation's true vector: 60% of each range
    true = {p.name: p.low + 0.6 * (p.high - p.low) for p in system.parameters}
    batch = {
        p.name: np.array([p.low, true[p.name], p.high])
        for p in system.parameters
    }
    ensemble = rk4_sampled(
        system.derivative(batch), system.initial_state(batch),
        0.0, system.t_end, system.n_steps, np.arange(system.n_steps + 1),
    )
    assert np.array_equal(system.simulate(true), ensemble[:, :, 1])
