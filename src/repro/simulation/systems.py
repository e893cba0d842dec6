"""The dynamical-system abstraction shared by all test systems.

A :class:`DynamicalSystem` exposes (a) a named, ordered set of
*simulation parameters* (the tensor modes besides time), (b) the ODE
right-hand side for a batch of parameter assignments, and (c) the
batch's initial states.  Both work on one layout: parameters are
length-``B`` arrays and the state is ``(state_dim, B)``, one column per
run, so ``theta, omega = state`` unpacks rows and the body reads like
the scalar formula.  A lone run (:meth:`DynamicalSystem.simulate`) is a
batch of one column, so every run of every system goes through one
right-hand side and rounds alike at every batch size.  Adding a system
means writing one subclass with one ``derivative`` and one
``initial_state``.

A study's integration is bound by numpy call overhead (hundreds of
right-hand-side calls on small arrays), so ``derivative`` binds every
parameter-only factor once, outside the ``deriv`` closure it returns,
and ``deriv`` computes each repeated state subexpression once.  Each
hoisted factor keeps the association of the formula it came from
(Python multiplies left to right, so ``-g * (2 * m1 + m2) * x`` may bind
``-g * (2 * m1 + m2)``, but ``2 * s * m2`` may not fold ``2 * m2``):
a re-associated product rounds differently and moves every cached and
golden value.  ``tests/simulation/test_rhs_pins.py`` pins each
right-hand side to its literal formula, bit for bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from .integrators import rk4_sampled


@dataclass(frozen=True)
class ParameterDef:
    """One simulation parameter: a name and its plausible value range.

    ``low``/``high`` bound the grid the ensemble machinery discretizes
    (the paper's "resolution" is the number of distinct values per
    parameter); ``default`` is the PF-partitioning *fixing constant*
    used when the parameter is frozen in a sub-system (Section V-B).
    """

    name: str
    low: float
    high: float
    default: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise SimulationError(
                f"parameter {self.name}: low {self.low} must be < high {self.high}"
            )
        if not self.low <= self.default <= self.high:
            raise SimulationError(
                f"parameter {self.name}: default {self.default} outside "
                f"[{self.low}, {self.high}]"
            )

    def grid(self, resolution: int) -> np.ndarray:
        """``resolution`` equally spaced values over ``[low, high]``."""
        if resolution < 1:
            raise SimulationError(f"resolution must be >= 1, got {resolution}")
        if resolution == 1:
            return np.array([self.default])
        return np.linspace(self.low, self.high, resolution)


class DynamicalSystem(ABC):
    """Base class for the simulated complex systems (Section VII-A)."""

    #: Human-readable system name (used in reports).
    name: str = "abstract"

    #: Simulation time horizon; trajectories run over [0, t_end].
    t_end: float = 10.0

    #: Fixed-step RK4 steps per simulation run (time-mode samples are
    #: read off this trajectory).
    n_steps: int = 200

    @property
    @abstractmethod
    def parameters(self) -> Tuple[ParameterDef, ...]:
        """Ordered simulation parameters (tensor modes before time)."""

    @abstractmethod
    def derivative(
        self, params: Dict[str, np.ndarray]
    ) -> Callable[[float, np.ndarray], np.ndarray]:
        """ODE right-hand side for a batch of parameter assignments.

        ``params`` maps each parameter name to a length-``B`` array;
        the returned function maps a ``(state_dim, B)`` state to its
        ``(state_dim, B)`` time derivative.
        """

    @abstractmethod
    def initial_state(self, params: Dict[str, np.ndarray]) -> np.ndarray:
        """``(state_dim, B)`` initial states for a batch of assignments."""

    # ------------------------------------------------------------------
    @property
    def n_parameters(self) -> int:
        return len(self.parameters)

    @property
    def parameter_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    def default_params(self) -> Dict[str, float]:
        """All parameters at their fixing-constant defaults."""
        return {p.name: p.default for p in self.parameters}

    def resolve(self, values: Sequence[float]) -> Dict[str, float]:
        """Zip a value vector with the parameter names, validating length."""
        if len(values) != self.n_parameters:
            raise SimulationError(
                f"{self.name} takes {self.n_parameters} parameters, "
                f"got {len(values)}"
            )
        return dict(zip(self.parameter_names, (float(v) for v in values)))

    def simulate(self, params: Dict[str, float]) -> np.ndarray:
        """Run one simulation; returns states of shape
        ``(n_steps + 1, state_dim)`` on the uniform time grid.

        The run is a one-column batch of :meth:`derivative`, so its
        states equal that run's column in any ensemble batch bit for
        bit.  It backs :func:`make_observation`, for callers without a
        study; a study's observation is one more column of a batch its
        oracle integrates anyway (see :mod:`.ensemble`).
        """
        missing = set(self.parameter_names) - set(params)
        if missing:
            raise SimulationError(
                f"{self.name}: missing parameters {sorted(missing)}"
            )
        run = {
            name: np.array([float(params[name])])
            for name in self.parameter_names
        }
        states = rk4_sampled(
            self.derivative(run), self.initial_state(run),
            0.0, self.t_end, self.n_steps, np.arange(self.n_steps + 1),
        )[:, :, 0]
        if not np.isfinite(states).all():
            raise SimulationError(
                f"{self.name}: integration diverged (non-finite state) "
                f"at {dict(params)}"
            )
        return states

    def time_grid(self, resolution: int) -> np.ndarray:
        """Indices into the trajectory for ``resolution`` time samples.

        The time mode of the ensemble tensor has ``resolution`` cells;
        they are spread evenly over the (finer) integration grid.
        """
        if resolution < 1:
            raise SimulationError(f"resolution must be >= 1, got {resolution}")
        return np.linspace(0, self.n_steps, resolution).round().astype(int)
