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
  sub-decompositions are combined (average, or row-wise energy
  selection over ``m`` candidates), each group's factor comes from its
  own sub-tensor, and the core is recovered against the multiway join
  tensor ``J(p, a_1, ..., a_m) = mean_i X_i(p, a_i)``.

For ``m = 2`` everything here agrees with the two-way path (tests
assert it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import PartitionError, StitchError
from ..sampling.partition import PFPartition
from ..simulation.parameter_space import ParameterSpace
from ..tensor.svd import truncated_svd, leading_left_singular_vectors
from ..tensor.ttm import multi_ttm
from ..tensor.tucker import TuckerTensor
from ..tensor.unfold import unfold
from .evaluation import accuracy
from .row_select import align_columns


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
    def join_modes(self) -> Tuple[int, ...]:
        return self.pivot_modes + tuple(
            m for g in self.free_groups for m in g
        )

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


def multiway_join_dense(
    subs: Sequence[np.ndarray], partition: MWPartition
) -> np.ndarray:
    """Dense multiway join: ``J(p, a_1..a_m) = mean_i X_i(p, a_i)``.

    Requires complete (dense) sub-tensors in sub-mode order.
    """
    if len(subs) != partition.m:
        raise StitchError(
            f"need {partition.m} sub-tensors, got {len(subs)}"
        )
    k = partition.k
    pivot_shape = tuple(partition.shape[m] for m in partition.pivot_modes)
    group_shapes = [
        tuple(partition.shape[m] for m in g) for g in partition.free_groups
    ]
    total = None
    for index, sub in enumerate(subs):
        sub = np.asarray(sub, dtype=np.float64)
        expected = partition.sub_shape(index)
        if sub.shape != expected:
            raise StitchError(
                f"sub-tensor {index} has shape {sub.shape}, expected "
                f"{expected}"
            )
        # reshape to broadcast over the other groups' axes
        new_shape = list(pivot_shape)
        for g_index, g_shape in enumerate(group_shapes):
            if g_index == index:
                new_shape.extend(g_shape)
            else:
                new_shape.extend([1] * len(g_shape))
        term = sub.reshape(new_shape)
        total = term if total is None else total + term
    return total / partition.m


def _combine_pivot_factors(
    factor_list: List[np.ndarray],
    sval_list: List[np.ndarray],
    variant: str,
) -> np.ndarray:
    """Combine ``m`` pivot-mode factor matrices.

    ``avg`` averages all (sign-aligned to the first); ``select`` takes
    each row from the sub-decomposition with the largest spectral row
    energy.
    """
    reference = factor_list[0]
    aligned = [reference] + [
        align_columns(reference, u) for u in factor_list[1:]
    ]
    if variant == "avg":
        return np.mean(aligned, axis=0)
    energies = np.stack(
        [
            np.linalg.norm(u * s[None, :], axis=1)
            for u, s in zip(aligned, sval_list)
        ]
    )  # (m, rows)
    winners = energies.argmax(axis=0)
    rows = np.arange(reference.shape[0])
    stacked = np.stack(aligned)  # (m, rows, cols)
    return stacked[winners, rows, :]


@dataclass
class MultiwayResult:
    """Outcome of a multiway M2TD decomposition."""

    tucker: TuckerTensor
    partition: MWPartition
    variant: str
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def reconstruct_original(self) -> np.ndarray:
        return np.transpose(
            self.tucker.reconstruct(), self.partition.join_to_original
        )

    def accuracy(self, truth: np.ndarray) -> float:
        return accuracy(
            self.reconstruct_original(), truth, invalid_truth=StitchError
        )


def m2td_multiway(
    subs: Sequence[np.ndarray],
    partition: MWPartition,
    ranks: Sequence[int],
    variant: str = "select",
) -> MultiwayResult:
    """M2TD over ``m`` complete sub-ensembles.

    Parameters
    ----------
    subs:
        Dense sub-tensors, one per group, in sub-mode order (pivots
        first).
    partition:
        The multiway partition.
    ranks:
        Target rank per original mode (clipped per matricization).
    variant:
        ``"avg"`` or ``"select"`` (CONCAT would need all
        matricizations concatenated; supported via ``"concat"``).
    """
    if variant not in ("avg", "concat", "select"):
        raise StitchError(f"unknown multiway variant {variant!r}")
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != partition.n_modes:
        raise StitchError(
            f"need one rank per mode ({partition.n_modes}), got {len(ranks)}"
        )
    dense_subs = [np.asarray(s, dtype=np.float64) for s in subs]
    k = partition.k

    started = time.perf_counter()
    factors: List[np.ndarray] = []
    # pivot modes: combine over all sub-decompositions
    for axis in range(k):
        rank = ranks[partition.join_modes[axis]]
        if variant == "concat":
            combined = np.hstack(
                [unfold(sub, axis) for sub in dense_subs]
            )
            clipped = max(1, min(rank, min(combined.shape)))
            factors.append(
                leading_left_singular_vectors(combined, clipped)
            )
            continue
        factor_list, sval_list = [], []
        for sub in dense_subs:
            matricized = unfold(sub, axis)
            clipped = max(1, min(rank, min(matricized.shape)))
            u, s, _vt = truncated_svd(matricized, clipped)
            factor_list.append(u)
            sval_list.append(s)
        width = min(u.shape[1] for u in factor_list)
        factor_list = [u[:, :width] for u in factor_list]
        sval_list = [s[:width] for s in sval_list]
        factors.append(
            _combine_pivot_factors(factor_list, sval_list, variant)
        )
    # group modes: from their own sub-tensor
    for index, group in enumerate(partition.free_groups):
        sub = dense_subs[index]
        for offset in range(len(group)):
            axis = k + offset
            rank = ranks[group[offset]]
            matricized = unfold(sub, axis)
            clipped = max(1, min(rank, min(matricized.shape)))
            factors.append(
                leading_left_singular_vectors(matricized, clipped)
            )
    sub_decompose_seconds = time.perf_counter() - started

    started = time.perf_counter()
    joined = multiway_join_dense(dense_subs, partition)
    stitch_seconds = time.perf_counter() - started

    started = time.perf_counter()
    core = multi_ttm(joined, factors, transpose=True)
    core_seconds = time.perf_counter() - started

    return MultiwayResult(
        tucker=TuckerTensor(core, factors),
        partition=partition,
        variant=variant,
        phase_seconds={
            "sub_decompose": sub_decompose_seconds,
            "stitch": stitch_seconds,
            "core": core_seconds,
        },
    )


def multiway_budget_cells(partition: MWPartition) -> int:
    """Cells consumed by complete multiway sub-ensembles:
    ``P * sum_i E_i``."""
    pivot_cells = int(
        np.prod([partition.shape[m] for m in partition.pivot_modes])
    )
    return pivot_cells * int(
        sum(
            np.prod([partition.shape[m] for m in g])
            for g in partition.free_groups
        )
    )


def multiway_study(
    truth: np.ndarray,
    partition: MWPartition,
    ranks: Sequence[int],
    variant: str = "select",
) -> Tuple[MultiwayResult, int]:
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
