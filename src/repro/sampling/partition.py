"""Pivoted/Fixed (PF) partitioning of a parameter space (Section V-B).

Given a system with ``N`` tensor modes, a :class:`PFPartition` splits
the modes into

* ``k`` **pivot** modes, shared between both sub-systems,
* sub-system 1's **free** modes (frozen in sub-system 2), and
* sub-system 2's **free** modes (frozen in sub-system 1);

each frozen mode is pinned to a *fixing-constant* index.  The class
owns all the coordinate bookkeeping: sub-tensor shapes, embedding
sub-space coordinates back into the full space, and the mode order of
the join tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import PartitionError
from ..simulation.parameter_space import ParameterSpace


@dataclass(frozen=True)
class PFPartition:
    """A pivoted/fixed split of a tensor's modes.

    Attributes
    ----------
    shape:
        Full-space tensor shape.
    pivot_modes:
        Original indices of the ``k`` shared pivot modes.
    s1_free / s2_free:
        Original indices of each sub-system's free modes.
    fixed_indices:
        ``{mode: index}`` fixing constants for every mode that appears
        frozen in one of the sub-systems (i.e. every free mode).
    """

    shape: Tuple[int, ...]
    pivot_modes: Tuple[int, ...]
    s1_free: Tuple[int, ...]
    s2_free: Tuple[int, ...]
    fixed_indices: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        object.__setattr__(self, "shape", shape)
        pivot = tuple(int(m) for m in self.pivot_modes)
        s1 = tuple(int(m) for m in self.s1_free)
        s2 = tuple(int(m) for m in self.s2_free)
        object.__setattr__(self, "pivot_modes", pivot)
        object.__setattr__(self, "s1_free", s1)
        object.__setattr__(self, "s2_free", s2)
        n_modes = len(shape)
        all_modes = pivot + s1 + s2
        if sorted(all_modes) != list(range(n_modes)):
            raise PartitionError(
                f"pivot {pivot} + s1_free {s1} + s2_free {s2} must "
                f"partition modes 0..{n_modes - 1}"
            )
        if not pivot:
            raise PartitionError("at least one pivot mode is required")
        if not s1 or not s2:
            raise PartitionError("both sub-systems need at least one free mode")
        fixed = {int(m): int(i) for m, i in self.fixed_indices.items()}
        for mode in s1 + s2:
            if mode not in fixed:
                # Default fixing constant: the middle grid index.
                fixed[mode] = shape[mode] // 2
            if not 0 <= fixed[mode] < shape[mode]:
                raise PartitionError(
                    f"fixing index {fixed[mode]} out of range for mode {mode}"
                )
        object.__setattr__(self, "fixed_indices", fixed)

    # ------------------------------------------------------------------
    # derived geometry
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of shared pivot modes."""
        return len(self.pivot_modes)

    @property
    def n_modes(self) -> int:
        return len(self.shape)

    def sub_modes(self, which: int) -> Tuple[int, ...]:
        """Original mode ids of sub-system ``which`` (1 or 2), pivots first."""
        if which == 1:
            return self.pivot_modes + self.s1_free
        if which == 2:
            return self.pivot_modes + self.s2_free
        raise PartitionError(f"sub-system must be 1 or 2, got {which}")

    def sub_shape(self, which: int) -> Tuple[int, ...]:
        return tuple(self.shape[m] for m in self.sub_modes(which))

    def frozen_modes(self, which: int) -> Tuple[int, ...]:
        """Modes fixed (not varied) in sub-system ``which``."""
        if which == 1:
            return self.s2_free
        return self.s1_free if which == 2 else self._bad(which)

    @staticmethod
    def _bad(which):  # pragma: no cover - defensive
        raise PartitionError(f"sub-system must be 1 or 2, got {which}")

    @property
    def pivot_shape(self) -> Tuple[int, ...]:
        return tuple(self.shape[m] for m in self.pivot_modes)

    @property
    def sub_shapes(self) -> Tuple[Tuple[int, ...], ...]:
        """Each sub-system's :meth:`sub_shape`, sub-system 1 first."""
        return (self.sub_shape(1), self.sub_shape(2))

    def free_shape(self, which: int) -> Tuple[int, ...]:
        free = self.s1_free if which == 1 else self.s2_free
        return tuple(self.shape[m] for m in free)

    @property
    def pivot_space_size(self) -> int:
        return int(np.prod(self.pivot_shape))

    def free_space_size(self, which: int) -> int:
        return int(np.prod(self.free_shape(which)))

    # ------------------------------------------------------------------
    # join-tensor mode order
    # ------------------------------------------------------------------
    @property
    def join_modes(self) -> Tuple[int, ...]:
        """Original mode ids in the join tensor's internal order:
        pivots, then S1 free, then S2 free."""
        return self.pivot_modes + self.s1_free + self.s2_free

    @property
    def join_shape(self) -> Tuple[int, ...]:
        return tuple(self.shape[m] for m in self.join_modes)

    @property
    def join_to_original(self) -> Tuple[int, ...]:
        """Permutation ``p`` such that transposing a join-ordered tensor
        with ``p`` yields the original mode order: position ``i`` gives
        the join-axis holding original mode ``i``."""
        lookup = {mode: axis for axis, mode in enumerate(self.join_modes)}
        return tuple(lookup[mode] for mode in range(self.n_modes))

    # ------------------------------------------------------------------
    # coordinate embedding
    # ------------------------------------------------------------------
    def embed_coords(self, which: int, sub_coords: np.ndarray) -> np.ndarray:
        """Map sub-space coordinates to full-space coordinates.

        ``sub_coords`` has one column per sub-system mode in
        :meth:`sub_modes` order; frozen modes are filled with their
        fixing-constant indices.
        """
        sub_coords = np.atleast_2d(np.asarray(sub_coords, dtype=np.int64))
        modes = self.sub_modes(which)
        if sub_coords.shape[1] != len(modes):
            raise PartitionError(
                f"sub-system {which} coordinates need {len(modes)} columns, "
                f"got {sub_coords.shape[1]}"
            )
        full = np.empty((sub_coords.shape[0], self.n_modes), dtype=np.int64)
        for axis, mode in enumerate(modes):
            full[:, mode] = sub_coords[:, axis]
        for mode in self.frozen_modes(which):
            full[:, mode] = self.fixed_indices[mode]
        return full

    def extract_sub_tensor(self, which: int, full: np.ndarray) -> np.ndarray:
        """Slice the ground-truth sub-system tensor out of the full
        tensor: frozen modes pinned to fixing constants, remaining
        modes reordered to :meth:`sub_modes` order."""
        full = np.asarray(full)
        if full.shape != self.shape:
            raise PartitionError(
                f"full tensor shape {full.shape} != partition shape {self.shape}"
            )
        index = [slice(None)] * self.n_modes
        for mode in self.frozen_modes(which):
            index[mode] = self.fixed_indices[mode]
        sliced = full[tuple(index)]
        frozen = self.frozen_modes(which)
        remaining = [m for m in range(self.n_modes) if m not in frozen]
        order = [remaining.index(m) for m in self.sub_modes(which)]
        return np.transpose(sliced, order)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_space(
        cls,
        space: ParameterSpace,
        pivot="t",
        s1_free: Optional[Sequence[str]] = None,
        s2_free: Optional[Sequence[str]] = None,
        fixed_indices: Optional[Dict[str, int]] = None,
    ) -> "PFPartition":
        """Build a partition for a simulation parameter space by name.

        Parameters
        ----------
        space:
            The discretized parameter space.
        pivot:
            Name of the pivot mode, e.g. ``"t"`` or ``"m1"`` — or a
            sequence of names for a multi-pivot (``k > 1``) partition,
            e.g. ``("g", "t")`` on the 5-parameter pendulum.
        s1_free / s2_free:
            Optional explicit mode-name split of the non-pivot modes
            (used by the pivot-choice experiment to keep same-pendulum
            parameters together).  When omitted the first half of the
            remaining modes, in tensor order, goes to sub-system 1.
        fixed_indices:
            Optional ``{mode_name: index}`` fixing constants; modes not
            listed use the grid index closest to the parameter's
            declared default value (the time mode uses its middle
            index).
        """
        if isinstance(pivot, str):
            pivot_names: Sequence[str] = (pivot,)
        else:
            pivot_names = tuple(pivot)
        pivot_mode_list = [space.mode_index(name) for name in pivot_names]
        if len(set(pivot_mode_list)) != len(pivot_mode_list):
            raise PartitionError(f"duplicate pivot modes in {pivot_names}")
        remaining = [
            m for m in range(space.n_modes) if m not in pivot_mode_list
        ]
        if (s1_free is None) != (s2_free is None):
            raise PartitionError(
                "either give both s1_free and s2_free or neither"
            )
        if s1_free is None:
            half = len(remaining) // 2
            s1 = tuple(remaining[:half])
            s2 = tuple(remaining[half:])
        else:
            s1 = tuple(space.mode_index(n) for n in s1_free)
            s2 = tuple(space.mode_index(n) for n in s2_free)
        if len(s1) != len(s2):
            raise PartitionError(
                f"sub-systems must have equally many free modes, got "
                f"{len(s1)} and {len(s2)} (N - k must be even)"
            )
        fixed: Dict[int, int] = {}
        for mode in s1 + s2:
            if mode == space.time_mode:
                fixed[mode] = space.time_resolution // 2
            else:
                grid = space.grid(mode)
                default = space.system.parameters[mode].default
                fixed[mode] = int(np.abs(grid - default).argmin())
        if fixed_indices:
            for name, index in fixed_indices.items():
                fixed[space.mode_index(name)] = int(index)
        return cls(
            shape=space.shape,
            pivot_modes=tuple(pivot_mode_list),
            s1_free=s1,
            s2_free=s2,
            fixed_indices=fixed,
        )
