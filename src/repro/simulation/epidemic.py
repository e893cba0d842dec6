"""An SEIR epidemic-spread model (the paper's motivating domain).

Section I opens with epidemic simulation (STEM [6]) as the canonical
ensemble use case: experts sweep transmission/recovery parameters and
intervention scenarios, then need the ensemble's broad patterns.  This
module supplies a compartmental SEIR system so the library's pipeline
can be exercised on the paper's own motivating application (see
``examples/epidemic_study.py``).

Compartments (fractions of the population): susceptible ``S``,
exposed ``E``, infectious ``I``, recovered ``R``:

    dS/dt = -beta * S * I
    dE/dt =  beta * S * I - sigma * E
    dI/dt =  sigma * E - gamma * I
    dR/dt =  gamma * I

Simulation parameters: the transmission rate ``beta``, the incubation
rate ``sigma``, the recovery rate ``gamma``, and the initially
infectious fraction ``i0``.  The basic reproduction number is
``R0 = beta / gamma``; the default ranges straddle ``R0 = 1``, so
ensembles contain both fizzling and epidemic trajectories.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from .systems import DynamicalSystem, ParameterDef


class EpidemicSEIR(DynamicalSystem):
    """SEIR compartmental epidemic model.

    State: rows ``(S, E, I, R)`` as population fractions, one column
    per run.
    """

    name = "epidemic_seir"
    t_end = 60.0  # days
    n_steps = 300

    def __init__(self, e0: float = 0.0):
        #: Initially exposed fraction (on top of the i0 parameter).
        self.e0 = float(e0)
        self._parameters = (
            ParameterDef("beta", low=0.1, high=0.8, default=0.4),
            ParameterDef("sigma", low=0.1, high=0.5, default=0.2),
            ParameterDef("gamma", low=0.05, high=0.4, default=0.15),
            ParameterDef("i0", low=0.001, high=0.05, default=0.01),
        )

    @property
    def parameters(self) -> Tuple[ParameterDef, ...]:
        return self._parameters

    def initial_state(self, params: Dict[str, np.ndarray]) -> np.ndarray:
        i0 = np.asarray(params["i0"], dtype=np.float64)
        s0 = np.clip(1.0 - i0 - self.e0, 0.0, None)
        e0 = np.full_like(i0, self.e0)
        return np.stack([s0, e0, i0, np.zeros_like(i0)])

    def derivative(
        self, params: Dict[str, np.ndarray]
    ) -> Callable[[float, np.ndarray], np.ndarray]:
        beta = params["beta"]
        sigma = params["sigma"]
        gamma = params["gamma"]

        def deriv(_t: float, state: np.ndarray) -> np.ndarray:
            s, e, i, _r = state
            new_infections = beta * s * i
            incubated = sigma * e
            recovered = gamma * i
            return np.array(
                [
                    -new_infections,
                    new_infections - incubated,
                    incubated - recovered,
                    recovered,
                ]
            )

        return deriv

    def basic_reproduction_number(self, params: Dict[str, float]) -> float:
        """``R0 = beta / gamma`` — epidemic threshold at 1."""
        return float(params["beta"]) / float(params["gamma"])
