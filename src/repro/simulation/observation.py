"""The observed reference configuration ensemble cells are compared to.

Paper Section VII-B: "Each cell of the 5-mode ensemble simulation
tensor encodes the Euclidean distance between the states of the
resulting simulated system and the observed system parameters at a
given time stamp."  The paper's observation comes from the real world;
our synthetic stand-in is a designated reference simulation at a
"true" parameter vector (see DESIGN.md substitution table).  A study
does not run it on its own: its oracle integrates it as one more column
of a batch it integrates anyway (:mod:`.ensemble`).

By default the true vector sits at 60% of each parameter's range —
deliberately *not* at the PF-partitioning fixing constants, so the
sub-systems' frozen parameters are genuinely imperfect approximations
of the observed configuration (the regime the paper argues M2TD
survives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..exceptions import SimulationError
from .parameter_space import ParameterSpace


@dataclass
class Observation:
    """Reference states sampled on the ensemble's time grid.

    Attributes
    ----------
    true_params:
        The parameter assignment that generated the reference run.
    states:
        Array of shape ``(time_resolution, state_dim)``; ``None`` until
        the reference run is integrated.  It is set once, by the first
        batch that carries the run (see
        :func:`~repro.simulation.ensemble.simulate_fibers`).
    """

    true_params: Dict[str, float]
    states: Optional[np.ndarray] = None

    def distances(self, trajectory_samples: np.ndarray) -> np.ndarray:
        """Euclidean state distance per time sample.

        Parameters
        ----------
        trajectory_samples:
            Array of shape ``(T, ..., state_dim)`` — simulated states
            at the same ``T`` time samples, with optional batch axes in
            between.

        Returns
        -------
        numpy.ndarray
            Distances of shape ``(T, ...)``.
        """
        samples = np.asarray(trajectory_samples)
        if samples.shape[0] != self.states.shape[0]:
            raise SimulationError(
                f"trajectory has {samples.shape[0]} time samples, "
                f"observation has {self.states.shape[0]}"
            )
        if samples.shape[-1] != self.states.shape[-1]:
            raise SimulationError(
                f"state dimension mismatch: {samples.shape[-1]} vs "
                f"{self.states.shape[-1]}"
            )
        reference = self.states.reshape(
            (self.states.shape[0],)
            + (1,) * (samples.ndim - 2)
            + (self.states.shape[-1],)
        )
        return np.linalg.norm(samples - reference, axis=-1)


def true_parameters(
    space: ParameterSpace,
    true_params: Optional[Dict[str, float]] = None,
    offset: float = 0.6,
) -> Dict[str, float]:
    """The observation's true parameter assignment, validated.

    Parameters
    ----------
    space:
        The discretized simulation space.
    true_params:
        Explicit "true" parameter assignment; when omitted, each
        parameter is placed at ``low + offset * (high - low)``.
    offset:
        Fractional position of the default true vector in each range.
    """
    system = space.system
    if true_params is None:
        if not 0.0 <= offset <= 1.0:
            raise SimulationError(f"offset must be in [0, 1], got {offset}")
        return {
            p.name: p.low + offset * (p.high - p.low)
            for p in system.parameters
        }
    missing = set(system.parameter_names) - set(true_params)
    if missing:
        raise SimulationError(
            f"true_params missing {sorted(missing)} for {system.name}"
        )
    return {name: float(true_params[name]) for name in system.parameter_names}


def make_observation(
    space: ParameterSpace,
    true_params: Optional[Dict[str, float]] = None,
    offset: float = 0.6,
) -> Observation:
    """The reference observation for a parameter space, its reference
    run integrated now, for callers without a study.  Arguments as in
    :func:`true_parameters`."""
    true_params = true_parameters(space, true_params, offset)
    trajectory = space.system.simulate(true_params)
    return Observation(true_params, trajectory[space.time_indices])
