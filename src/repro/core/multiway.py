"""Multiway partition-stitch: more than two sub-systems.

The paper partitions a system into exactly *two* sub-systems
(Section V); its construction generalizes naturally — and this module
implements the generalization as an extension experiment:

* an :class:`MWPartition` splits the non-pivot modes into ``m``
  *groups*; sub-system ``i`` varies the pivots plus group ``i`` and
  freezes everything else at fixing constants;
* each sub-ensemble costs ``P * E_i`` cells, so the total budget is
  ``P * sum(E_i)`` while the multiway join carries
  ``P * prod(E_i)`` effective entries — deeper partitioning
  (larger ``m``) buys exponentially more effective density per cell,
  at the price of more frozen parameters per sub-system;
* M2TD extends mode-wise: the pivot factor matrices of all ``m``
  sub-decompositions are combined (average, concatenation, or
  row-wise energy selection over ``m`` candidates), each group's
  factor comes from its own sub-tensor, and the core is recovered
  against the multiway join tensor
  ``J(p, a_1, ..., a_m) = mean_i X_i(p, a_i)``.

:func:`m2td_multiway` is the same engine as the two-way path
(:func:`~repro.core.m2td.decompose_sub_ensembles`); for ``m = 2`` it
returns :func:`~repro.core.m2td.m2td_decompose`'s result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import PartitionError
from ..sampling.partition import PFPartition
from ..simulation.parameter_space import ParameterSpace
from .m2td import M2TDResult, TensorLike, decompose_sub_ensembles


@dataclass(frozen=True)
class MWPartition:
    """A pivoted/fixed split of the modes into ``m >= 2`` groups.

    Attributes
    ----------
    shape:
        Full-space tensor shape.
    pivot_modes:
        Original indices of the shared pivot modes.
    free_groups:
        One tuple of original mode indices per sub-system.
    fixed_indices:
        Fixing-constant index per frozen mode (defaults to middle).
    """

    shape: Tuple[int, ...]
    pivot_modes: Tuple[int, ...]
    free_groups: Tuple[Tuple[int, ...], ...]
    fixed_indices: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        pivots = tuple(int(m) for m in self.pivot_modes)
        groups = tuple(tuple(int(m) for m in g) for g in self.free_groups)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "pivot_modes", pivots)
        object.__setattr__(self, "free_groups", groups)
        if len(groups) < 2:
            raise PartitionError("multiway partition needs >= 2 groups")
        if not pivots:
            raise PartitionError("at least one pivot mode is required")
        flat = list(pivots) + [m for g in groups for m in g]
        if sorted(flat) != list(range(len(shape))):
            raise PartitionError(
                "pivots + groups must partition all modes exactly once"
            )
        if any(not g for g in groups):
            raise PartitionError("every group needs at least one mode")
        fixed = {int(m): int(i) for m, i in self.fixed_indices.items()}
        for group in groups:
            for mode in group:
                fixed.setdefault(mode, shape[mode] // 2)
                if not 0 <= fixed[mode] < shape[mode]:
                    raise PartitionError(
                        f"fixing index {fixed[mode]} out of range for "
                        f"mode {mode}"
                    )
        object.__setattr__(self, "fixed_indices", fixed)

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of sub-systems."""
        return len(self.free_groups)

    @property
    def k(self) -> int:
        return len(self.pivot_modes)

    @property
    def n_modes(self) -> int:
        return len(self.shape)

    def sub_modes(self, index: int) -> Tuple[int, ...]:
        """Mode ids of sub-system ``index`` (0-based), pivots first."""
        return self.pivot_modes + self.free_groups[index]

    def sub_shape(self, index: int) -> Tuple[int, ...]:
        return tuple(self.shape[m] for m in self.sub_modes(index))

    @property
    def sub_shapes(self) -> Tuple[Tuple[int, ...], ...]:
        """Every sub-system's :meth:`sub_shape`, in group order."""
        return tuple(self.sub_shape(index) for index in range(self.m))

    @property
    def join_modes(self) -> Tuple[int, ...]:
        return self.pivot_modes + tuple(
            m for g in self.free_groups for m in g
        )

    @property
    def join_shape(self) -> Tuple[int, ...]:
        return tuple(self.shape[m] for m in self.join_modes)

    @property
    def join_to_original(self) -> Tuple[int, ...]:
        lookup = {mode: axis for axis, mode in enumerate(self.join_modes)}
        return tuple(lookup[mode] for mode in range(self.n_modes))

    def frozen_modes(self, index: int) -> Tuple[int, ...]:
        return tuple(
            m
            for g_index, g in enumerate(self.free_groups)
            if g_index != index
            for m in g
        )

    def extract_sub_tensor(self, index: int, full: np.ndarray) -> np.ndarray:
        """Slice sub-system ``index``'s complete sub-tensor out of the
        ground truth (frozen modes pinned, modes in sub order)."""
        full = np.asarray(full)
        if full.shape != self.shape:
            raise PartitionError(
                f"full tensor shape {full.shape} != partition shape "
                f"{self.shape}"
            )
        slicer: List = [slice(None)] * self.n_modes
        for mode in self.frozen_modes(index):
            slicer[mode] = self.fixed_indices[mode]
        sliced = full[tuple(slicer)]
        remaining = [
            m for m in range(self.n_modes)
            if m not in self.frozen_modes(index)
        ]
        order = [remaining.index(m) for m in self.sub_modes(index)]
        return np.transpose(sliced, order)

    def as_pf_partition(self) -> PFPartition:
        """The equivalent two-way partition (only for ``m == 2``)."""
        if self.m != 2:
            raise PartitionError(
                f"as_pf_partition needs m == 2, have m == {self.m}"
            )
        return PFPartition(
            shape=self.shape,
            pivot_modes=self.pivot_modes,
            s1_free=self.free_groups[0],
            s2_free=self.free_groups[1],
            fixed_indices=dict(self.fixed_indices),
        )

    @classmethod
    def for_space(
        cls,
        space: ParameterSpace,
        pivot="t",
        groups: Optional[Sequence[Sequence[str]]] = None,
    ) -> "MWPartition":
        """Build from mode names; default groups are singletons (the
        deepest partitioning)."""
        pivot_names = (pivot,) if isinstance(pivot, str) else tuple(pivot)
        pivot_modes = tuple(space.mode_index(n) for n in pivot_names)
        remaining = [
            m for m in range(space.n_modes) if m not in pivot_modes
        ]
        if groups is None:
            group_modes = tuple((m,) for m in remaining)
        else:
            group_modes = tuple(
                tuple(space.mode_index(n) for n in g) for g in groups
            )
        fixed: Dict[int, int] = {}
        for group in group_modes:
            for mode in group:
                if mode == space.time_mode:
                    fixed[mode] = space.time_resolution // 2
                else:
                    grid = space.grid(mode)
                    default = space.system.parameters[mode].default
                    fixed[mode] = int(np.abs(grid - default).argmin())
        return cls(
            shape=space.shape,
            pivot_modes=pivot_modes,
            free_groups=group_modes,
            fixed_indices=fixed,
        )


def m2td_multiway(
    subs: Sequence[TensorLike],
    partition: MWPartition,
    ranks: Sequence[int],
    variant: str = "select",
) -> M2TDResult:
    """M2TD over ``m`` sub-ensembles, joined (Section V-C1).

    Parameters
    ----------
    subs:
        Sub-tensors, one per group, in sub-mode order (pivots first) —
        dense arrays or :class:`~repro.tensor.sparse.SparseTensor`.
    partition:
        The multiway partition.
    ranks:
        Target rank per original mode (clipped per matricization).
    variant:
        ``"avg"``, ``"concat"`` or ``"select"``.
    """
    return decompose_sub_ensembles(subs, partition, ranks, variant=variant)


def multiway_budget_cells(partition: MWPartition) -> int:
    """Cells consumed by complete multiway sub-ensembles:
    ``P * sum_i E_i``."""
    return int(sum(np.prod(shape) for shape in partition.sub_shapes))


def multiway_study(
    truth: np.ndarray,
    partition: MWPartition,
    ranks: Sequence[int],
    variant: str = "select",
) -> Tuple[M2TDResult, int]:
    """Run the full multiway pipeline against a ground-truth tensor.

    Sub-ensembles are the *complete* sub-spaces (the analogue of
    ``P = E = 100%``); returns the result and the cell budget consumed.
    """
    subs = [
        partition.extract_sub_tensor(index, truth)
        for index in range(partition.m)
    ]
    result = m2td_multiway(subs, partition, ranks, variant=variant)
    return result, multiway_budget_cells(partition)
