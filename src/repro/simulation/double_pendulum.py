"""The double equal-length pendulum (paper Figure 2, Section VII-A).

Simulation parameters, matching the paper's evaluation: the initial
angles ``phi1``/``phi2`` and bob weights ``m1``/``m2`` of the two
pendulums.  Gravity is a fixed constructor argument (the intro's
5-parameter illustration includes ``g``; the evaluation freezes it).

State: rows ``(theta1, omega1, theta2, omega2)``, one column per run.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from .systems import DynamicalSystem, ParameterDef


class DoublePendulum(DynamicalSystem):
    """Two equal-length point-mass pendulums in series."""

    name = "double_pendulum"
    # Horizon kept in the coherent (pre-chaotic-mixing) regime: the
    # join tensor's pivot-separability assumption — and with it every
    # scheme's accuracy ceiling — degrades as trajectories decorrelate.
    t_end = 3.0
    n_steps = 200

    def __init__(self, gravity: float = 9.81, length: float = 1.0):
        self.gravity = float(gravity)
        self.length = float(length)
        self._parameters = (
            ParameterDef("phi1", low=0.1, high=2.0, default=1.0),
            ParameterDef("m1", low=0.5, high=3.0, default=1.0),
            ParameterDef("phi2", low=0.1, high=2.0, default=1.0),
            ParameterDef("m2", low=0.5, high=3.0, default=1.0),
        )

    @property
    def parameters(self) -> Tuple[ParameterDef, ...]:
        return self._parameters

    def initial_state(self, params: Dict[str, np.ndarray]) -> np.ndarray:
        phi1 = np.asarray(params["phi1"], dtype=np.float64)
        phi2 = np.asarray(params["phi2"], dtype=np.float64)
        zeros = np.zeros_like(phi1)
        return np.stack([phi1, zeros, phi2, zeros])

    def gravity_of(self, params: Dict[str, np.ndarray]) -> float:
        """Gravity of each run: the fixed constructor value here."""
        return self.gravity

    def derivative(
        self, params: Dict[str, np.ndarray]
    ) -> Callable[[float, np.ndarray], np.ndarray]:
        m1 = params["m1"]
        m2 = params["m2"]
        g = self.gravity_of(params)
        length = self.length
        # Parameter-only factors, bound once per batch.  Each keeps the
        # association of the formula it came from (Python evaluates
        # ``-g * (2 * m1 + m2) * x`` as ``(-g * (2 * m1 + m2)) * x``), so
        # hoisting changes no bit.
        two_m1_m2 = 2 * m1 + m2
        neg_g_two_m1_m2 = -g * two_m1_m2
        m2_g = m2 * g
        m1_m2 = m1 + m2
        g_m1_m2 = g * m1_m2

        def deriv(_t: float, state: np.ndarray) -> np.ndarray:
            theta1, omega1, theta2, omega2 = state
            delta = theta1 - theta2
            cos_d = np.cos(delta)
            two_sin_d = 2 * np.sin(delta)
            omega1_sq_l = omega1**2 * length
            omega2_sq_l = omega2**2 * length
            denom = length * (two_m1_m2 - m2 * np.cos(2 * delta))
            alpha1 = (
                neg_g_two_m1_m2 * np.sin(theta1)
                - m2_g * np.sin(theta1 - 2 * theta2)
                - two_sin_d * m2 * (omega2_sq_l + omega1_sq_l * cos_d)
            ) / denom
            alpha2 = (
                two_sin_d
                * (
                    omega1_sq_l * m1_m2
                    + g_m1_m2 * np.cos(theta1)
                    + omega2_sq_l * m2 * cos_d
                )
            ) / denom
            return np.array([omega1, alpha1, omega2, alpha2])

        return deriv

    def total_energy(
        self, params: Dict[str, np.ndarray], state: np.ndarray
    ) -> np.ndarray:
        """Mechanical energy of each column of a ``(4, B)`` state —
        conserved (no friction), which tests use to validate the
        integrator against this system."""
        m1 = params["m1"]
        m2 = params["m2"]
        g = self.gravity_of(params)
        length = self.length
        theta1, omega1, theta2, omega2 = state
        v1_sq = (length * omega1) ** 2
        v2_sq = (
            v1_sq
            + (length * omega2) ** 2
            + 2 * length**2 * omega1 * omega2 * np.cos(theta1 - theta2)
        )
        kinetic = 0.5 * m1 * v1_sq + 0.5 * m2 * v2_sq
        y1 = -length * np.cos(theta1)
        y2 = y1 - length * np.cos(theta2)
        potential = m1 * g * y1 + m2 * g * y2
        return kinetic + potential
