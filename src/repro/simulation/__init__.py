"""Dynamical-system simulation substrate.

Provides the paper's three test systems (double pendulum, triple
pendulum with friction, Lorenz) plus the 5-parameter pendulum and an
SEIR epidemic, the batched RK4 integrator that runs them,
discretized parameter spaces, the observed reference configuration,
and the memoized simulation oracle that builds ensemble tensors.
"""

from .double_pendulum import DoublePendulum
from .double_pendulum_g import DoublePendulumG
from .epidemic import EpidemicSEIR
from .ensemble import (
    SimulationMeter,
    SimulationOracle,
    full_space_tensor,
    simulate_fibers,
)
from .integrators import rk45, rk4_sampled
from .lorenz import Lorenz
from .observation import Observation, make_observation
from .parameter_space import TIME_MODE, ParameterSpace
from .systems import DynamicalSystem, ParameterDef
from .triple_pendulum import TriplePendulum, chain_pendulum_derivative

SYSTEMS = {
    DoublePendulum.name: DoublePendulum,
    DoublePendulumG.name: DoublePendulumG,
    TriplePendulum.name: TriplePendulum,
    Lorenz.name: Lorenz,
    EpidemicSEIR.name: EpidemicSEIR,
}


def make_system(name: str) -> DynamicalSystem:
    """Instantiate one of the paper's three systems by name."""
    try:
        return SYSTEMS[name]()
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; available: {sorted(SYSTEMS)}"
        ) from None


__all__ = [
    "DoublePendulum",
    "DoublePendulumG",
    "TriplePendulum",
    "Lorenz",
    "EpidemicSEIR",
    "DynamicalSystem",
    "ParameterDef",
    "ParameterSpace",
    "TIME_MODE",
    "Observation",
    "make_observation",
    "SimulationMeter",
    "SimulationOracle",
    "full_space_tensor",
    "simulate_fibers",
    "rk45",
    "rk4_sampled",
    "chain_pendulum_derivative",
    "SYSTEMS",
    "make_system",
]
