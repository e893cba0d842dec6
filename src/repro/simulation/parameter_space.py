"""Discretized parameter spaces: from a dynamical system to tensor modes.

The ensemble tensor of a system with ``N`` simulation parameters has
``N + 1`` modes: one per parameter (each discretized to ``resolution``
equally spaced values over its plausible range) plus a trailing *time*
mode (``resolution`` samples read off each trajectory).  This module
owns the index <-> value mapping for those modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Sequence, Tuple, Type

import numpy as np

from ..exceptions import ModeError, SimulationError
from .systems import DynamicalSystem

#: Name used for the trailing time mode in reports and pivot selection.
TIME_MODE = "t"


def index_rows(
    values, sizes: Sequence[int], what: str, error: Type[Exception]
) -> np.ndarray:
    """``values`` as a ``(B, len(sizes))`` int64 array whose column
    ``k`` lies in ``[0, sizes[k])``, or ``error`` naming the first bad
    row.

    A float index passes only as a finite whole number (``2.0``): it is
    never truncated, and a negative index is never wrapped to the end of
    its grid the way numpy indexing would.
    """
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[1] != len(sizes):
        raise error(
            f"{what} must have shape (B, {len(sizes)}), got {arr.shape}"
        )
    if arr.dtype.kind == "f":
        bad = ~np.isfinite(arr) | (arr != np.trunc(arr))
        if bad.any():
            row = arr[np.argmax(bad.any(axis=1))].tolist()
            raise error(f"{what} must be finite whole numbers, got row {row}")
    elif arr.dtype.kind not in "iu":
        raise error(f"{what} must be whole numbers, got dtype {arr.dtype}")
    bad = ((arr < 0) | (arr >= np.asarray(sizes))).any(axis=1)
    if bad.any():
        raise error(
            f"{what} row {arr[np.argmax(bad)].tolist()} out of range for "
            f"sizes {tuple(sizes)}"
        )
    return arr.astype(np.int64, copy=False)


@dataclass
class ParameterSpace:
    """The discretized simulation space of one dynamical system.

    Parameters
    ----------
    system:
        The dynamical system being studied.
    resolution:
        Number of distinct values per parameter mode (the paper sweeps
        60-80; the scaled harness uses 8-14).
    time_resolution:
        Number of time samples (defaults to ``resolution``, giving the
        paper's uniform ``R^5`` simulation space).
    """

    system: DynamicalSystem
    resolution: int
    time_resolution: int = None  # type: ignore[assignment]
    _grids: Tuple[np.ndarray, ...] = field(init=False, repr=False)
    _time_indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.resolution < 2:
            raise SimulationError(
                f"resolution must be >= 2, got {self.resolution}"
            )
        if self.time_resolution is None:
            self.time_resolution = self.resolution
        if self.time_resolution < 2:
            raise SimulationError(
                f"time_resolution must be >= 2, got {self.time_resolution}"
            )
        self._grids = tuple(
            p.grid(self.resolution) for p in self.system.parameters
        )
        self._time_indices = self.system.time_grid(self.time_resolution)

    # ------------------------------------------------------------------
    # mode geometry
    # ------------------------------------------------------------------
    @property
    def n_param_modes(self) -> int:
        return self.system.n_parameters

    @property
    def n_modes(self) -> int:
        """Parameter modes plus the time mode."""
        return self.n_param_modes + 1

    @property
    def time_mode(self) -> int:
        """Index of the time mode (always the last mode)."""
        return self.n_param_modes

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.resolution,) * self.n_param_modes + (self.time_resolution,)

    @property
    def mode_names(self) -> Tuple[str, ...]:
        return self.system.parameter_names + (TIME_MODE,)

    def mode_index(self, name: str) -> int:
        """Mode index of a parameter (or time) by name."""
        try:
            return self.mode_names.index(name)
        except ValueError:
            raise ModeError(
                f"unknown mode {name!r}; valid modes: {self.mode_names}"
            ) from None

    @property
    def n_simulations_full(self) -> int:
        """Simulation *runs* needed to fill the whole space.

        One run fills an entire time fiber, so this is the number of
        parameter-index combinations, ``resolution ** n_params``.
        """
        return self.resolution**self.n_param_modes

    @property
    def n_cells_full(self) -> int:
        return int(np.prod(self.shape))

    # ------------------------------------------------------------------
    # index <-> value mapping
    # ------------------------------------------------------------------
    def grid(self, mode: int) -> np.ndarray:
        """The value grid of a parameter mode."""
        if not 0 <= mode < self.n_param_modes:
            raise ModeError(
                f"mode {mode} is not a parameter mode "
                f"(parameter modes are 0..{self.n_param_modes - 1})"
            )
        return self._grids[mode]

    @property
    def time_indices(self) -> np.ndarray:
        """Trajectory-step index of each time-mode sample."""
        return self._time_indices

    def params_from_indices(self, indices: Sequence[int]) -> Dict[str, float]:
        """Map parameter-mode indices to a concrete parameter dict."""
        row = index_rows(
            [indices], self.shape[:-1], "parameter index", ModeError
        )[0]
        return {
            name: float(self._grids[mode][index])
            for mode, (name, index) in enumerate(
                zip(self.system.parameter_names, row)
            )
        }

    def param_index_combinations(self) -> Iterator[Tuple[int, ...]]:
        """Iterate all parameter-index combinations (C order)."""
        return (
            tuple(combo)
            for combo in np.ndindex(*(self.resolution,) * self.n_param_modes)
        )

    def batch_param_values(self, index_array: np.ndarray) -> Dict[str, np.ndarray]:
        """Vectorized :meth:`params_from_indices` for a ``(B, n_params)``
        index array — used by the batched simulator.  Rows that are not
        in-range whole numbers raise :class:`ModeError` (see
        :func:`index_rows`)."""
        return self.row_values(
            index_rows(
                index_array, self.shape[:-1], "parameter index", ModeError
            )
        )

    def row_values(self, rows: np.ndarray) -> Dict[str, np.ndarray]:
        """:meth:`batch_param_values` for rows :func:`index_rows` has
        already checked (in-range int64); it checks nothing itself."""
        return {
            name: self._grids[mode][rows[:, mode]]
            for mode, name in enumerate(self.system.parameter_names)
        }
