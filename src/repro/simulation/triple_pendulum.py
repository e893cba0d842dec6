"""The triple pendulum with variable friction (Section VII-A).

Simulation parameters match the paper: the three initial angles
``phi1``/``phi2``/``phi3`` and the friction coefficient ``f`` of the
whole system ("unlike the double pendulum system, in the triple
pendulum system the friction is considered as a simulation
parameter").

The equations of motion use the standard n-link point-mass chain
formulation: with equal rod lengths ``L`` and masses ``m_k``,

    A(θ) θ̈ = b(θ, θ̇) - f θ̇

with ``A[i, j] = (Σ_{k ≥ max(i, j)} m_k) L cos(θ_i - θ_j)`` and
``b[i] = -Σ_j (Σ_{k ≥ max(i, j)} m_k) L θ̇_j² sin(θ_i - θ_j)
- g (Σ_{k ≥ i} m_k) sin θ_i``.  The same routine with ``n = 2`` is used
in tests to cross-check the closed-form double-pendulum derivative.

State: rows ``(theta1, theta2, theta3, omega1, omega2, omega3)``, one
column per run.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .systems import DynamicalSystem, ParameterDef


def chain_pendulum_derivative(
    masses: Sequence[float],
    length: float,
    gravity: float,
    friction,
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Right-hand side for an n-link equal-length pendulum chain.

    The state is ``(2n, B)``: rows ``(theta_1..theta_n,
    omega_1..omega_n)``, one column per run.  Friction is viscous
    damping applied per joint velocity: a scalar, or one value per run.
    """
    masses = np.asarray(masses, dtype=np.float64)
    n = masses.shape[0]
    # tail_mass[i] = sum of masses at or below link i.
    tail_mass = np.cumsum(masses[::-1])[::-1]
    # coupling[i, j] = sum_{k >= max(i, j)} m_k
    coupling = np.minimum.outer(tail_mass, tail_mass)
    # Parameter-only factors, bound once with the formula's association.
    coupling_length = coupling[:, :, None] * length
    gravity_tail = gravity * tail_mass[:, None]

    def deriv(_t: float, state: np.ndarray) -> np.ndarray:
        theta = state[:n]
        omega = state[n:]
        # diff[i, j] = theta_i - theta_j, one column per run.
        diff = theta[:, None] - theta[None, :]
        pull = coupling_length * np.sin(diff) * omega**2
        # Summed over j in index order, like a plain matrix-vector loop,
        # so every batch size rounds alike (np.matmul takes the BLAS
        # route only for a contiguous operand, i.e. at B = 1).
        rhs = (
            -sum(pull[:, j] for j in range(n))
            - gravity_tail * np.sin(theta)
            - friction * omega
        )
        mass_matrix = coupling_length * np.cos(diff)
        alpha = np.linalg.solve(
            mass_matrix.transpose(2, 0, 1), rhs.T[:, :, None]
        )[:, :, 0]
        return np.concatenate([omega, alpha.T])

    return deriv


class TriplePendulum(DynamicalSystem):
    """Three equal-length, equal-mass pendulums with viscous friction."""

    name = "triple_pendulum"
    # See DoublePendulum: horizon chosen inside the coherent regime.
    t_end = 6.0
    n_steps = 200

    def __init__(
        self,
        gravity: float = 9.81,
        length: float = 1.0,
        mass: float = 1.0,
    ):
        self.gravity = float(gravity)
        self.length = float(length)
        self.mass = float(mass)
        self._parameters = (
            ParameterDef("phi1", low=0.1, high=2.0, default=1.0),
            ParameterDef("phi2", low=0.1, high=2.0, default=1.0),
            ParameterDef("phi3", low=0.1, high=2.0, default=1.0),
            ParameterDef("f", low=0.0, high=1.0, default=0.2),
        )

    @property
    def parameters(self) -> Tuple[ParameterDef, ...]:
        return self._parameters

    def initial_state(self, params: Dict[str, np.ndarray]) -> np.ndarray:
        phi1 = np.asarray(params["phi1"], dtype=np.float64)
        phi2 = np.asarray(params["phi2"], dtype=np.float64)
        phi3 = np.asarray(params["phi3"], dtype=np.float64)
        zeros = np.zeros_like(phi1)
        return np.stack([phi1, phi2, phi3, zeros, zeros, zeros])

    def derivative(
        self, params: Dict[str, np.ndarray]
    ) -> Callable[[float, np.ndarray], np.ndarray]:
        return chain_pendulum_derivative(
            masses=[self.mass] * 3,
            length=self.length,
            gravity=self.gravity,
            friction=params["f"],
        )
