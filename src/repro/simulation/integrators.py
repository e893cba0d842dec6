"""Fixed- and adaptive-step ODE integrators.

The paper obtains its pendulum/Lorenz trajectories from MATLAB codes;
we integrate the same equations of motion ourselves.  The one
fixed-step integrator is a classical RK4 over a batch of runs
(deterministic cost per simulation, which the budget accounting relies
on); an adaptive RK45 (Dormand-Prince) is provided as the tests'
high-accuracy reference.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from ..exceptions import SimulationError

Derivative = Callable[[float, np.ndarray], np.ndarray]


def _check_times(t0: float, t1: float, n_steps: int) -> None:
    if n_steps < 1:
        raise SimulationError(f"n_steps must be >= 1, got {n_steps}")
    if not t1 > t0:
        raise SimulationError(f"need t1 > t0, got t0={t0}, t1={t1}")


# Dormand-Prince 5(4) Butcher tableau.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)


def rk45(
    deriv: Derivative,
    y0: np.ndarray,
    t0: float,
    t1: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_steps: int = 100_000,
) -> Tuple[np.ndarray, np.ndarray]:
    """Adaptive Dormand-Prince RK45.

    Returns the accepted ``(times, states)`` sequence, always including
    ``t0`` and ``t1``.  Used in tests as a high-accuracy reference for
    the fixed-step integrators, not in the experiment hot path.
    """
    _check_times(t0, t1, 1)
    y = np.asarray(y0, dtype=np.float64)
    t = float(t0)
    h = (t1 - t0) / 100.0
    times = [t]
    states = [y.copy()]
    for _step in range(max_steps):
        if t >= t1:
            break
        h = min(h, t1 - t)
        ks = []
        for stage in range(7):
            yi = y.copy()
            for j, a in enumerate(_DP_A[stage]):
                yi += h * a * ks[j]
            ks.append(deriv(t + _DP_C[stage] * h, yi))
        y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks))
        y4 = y + h * sum(b * k for b, k in zip(_DP_B4, ks))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        error = np.sqrt(np.mean(((y5 - y4) / scale) ** 2))
        if error <= 1.0 or h <= 1e-14 * (t1 - t0):
            t += h
            y = y5
            times.append(t)
            states.append(y.copy())
        factor = 0.9 * (1.0 / error) ** 0.2 if error > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    else:
        raise SimulationError("rk45 exceeded max_steps before reaching t1")
    result = np.asarray(states)
    _check_finite(result)
    return np.asarray(times), result


def rk4_sampled(
    deriv: Derivative,
    y0: np.ndarray,
    t0: float,
    t1: float,
    n_steps: int,
    sample_steps: np.ndarray,
) -> np.ndarray:
    """RK4 over a *batch* of initial states, recording selected steps.

    Parameters
    ----------
    deriv:
        Right-hand side on the full state array, laid out
        ``(state_dim, B)``: one column per run.
    y0:
        Initial states, shape ``(state_dim, B)``.
    sample_steps:
        Sorted step indices in ``[0, n_steps]`` to record.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(len(sample_steps), state_dim, B)`` holding
        the state at each requested step.  Recording only the requested
        steps keeps memory at ``O(T * B)`` instead of
        ``O(n_steps * B)`` — this is what makes building the
        full-space ground-truth tensor tractable.  Non-finite states
        are returned, not raised: the caller checks each column, so it
        can name the run that diverged.
    """
    _check_times(t0, t1, n_steps)
    y = np.array(y0, dtype=np.float64, copy=True)
    sample_steps = np.asarray(sample_steps, dtype=np.int64)
    if sample_steps.size == 0:
        raise SimulationError("sample_steps must not be empty")
    if (np.diff(sample_steps) < 0).any():
        raise SimulationError("sample_steps must be sorted ascending")
    if sample_steps[0] < 0 or sample_steps[-1] > n_steps:
        raise SimulationError(
            f"sample_steps must lie in [0, {n_steps}]"
        )
    out = np.empty((sample_steps.shape[0],) + y.shape)
    cursor = 0
    while cursor < sample_steps.shape[0] and sample_steps[cursor] == 0:
        out[cursor] = y
        cursor += 1
    h = (t1 - t0) / n_steps
    for step in range(n_steps):
        t = t0 + step * h
        k1 = deriv(t, y)
        k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = deriv(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        while (
            cursor < sample_steps.shape[0]
            and sample_steps[cursor] == step + 1
        ):
            out[cursor] = y
            cursor += 1
        if cursor == sample_steps.shape[0]:
            break
    return out


def _check_finite(states: np.ndarray) -> None:
    if not np.isfinite(states).all():
        raise SimulationError(
            "integration diverged (non-finite state encountered)"
        )
