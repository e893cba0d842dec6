"""The Lorenz system (Section VII-A).

    dx/dt = sigma * (y - x)
    dy/dt = x * (rho - z) - y
    dz/dt = x * y - beta * z

Simulation parameters match the paper: the initial ``z`` coordinate
``z0`` and the three system parameters ``sigma``, ``beta``, ``rho``.
The classic chaotic regime (sigma=10, beta=8/3, rho=28) sits at the
parameter defaults, so ensembles straddle both chaotic and
non-chaotic behaviour.

State: rows ``(x, y, z)``, one column per run.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from .systems import DynamicalSystem, ParameterDef


class Lorenz(DynamicalSystem):
    """Lorenz '63 convection model with a variable initial height."""

    name = "lorenz"
    # Short horizon: Lorenz trajectories decorrelate exponentially
    # fast in the chaotic regime the parameter ranges straddle.
    t_end = 1.0
    n_steps = 400

    def __init__(self, x0: float = 1.0, y0: float = 1.0):
        self.x0 = float(x0)
        self.y0 = float(y0)
        self._parameters = (
            ParameterDef("z0", low=0.5, high=30.0, default=15.0),
            ParameterDef("sigma", low=5.0, high=15.0, default=10.0),
            ParameterDef("beta", low=1.0, high=4.0, default=8.0 / 3.0),
            ParameterDef("rho", low=20.0, high=40.0, default=28.0),
        )

    @property
    def parameters(self) -> Tuple[ParameterDef, ...]:
        return self._parameters

    def initial_state(self, params: Dict[str, np.ndarray]) -> np.ndarray:
        z0 = np.asarray(params["z0"], dtype=np.float64)
        return np.stack(
            [np.full_like(z0, self.x0), np.full_like(z0, self.y0), z0]
        )

    def derivative(
        self, params: Dict[str, np.ndarray]
    ) -> Callable[[float, np.ndarray], np.ndarray]:
        sigma = params["sigma"]
        beta = params["beta"]
        rho = params["rho"]

        def deriv(_t: float, state: np.ndarray) -> np.ndarray:
            x, y, z = state
            return np.array(
                [
                    sigma * (y - x),
                    x * (rho - z) - y,
                    x * y - beta * z,
                ]
            )

        return deriv
