"""Adaptive (single-run replication) ensemble growth.

The paper's related work (Section II-A) contrasts one-shot ensemble
design with *single-run replication*: allocate simulations
incrementally, using what the model has learned so far to decide what
to run next.  This module implements that loop on top of
partition-stitch sampling:

1. seed each sub-ensemble with a random fraction of its free
   configurations (full pivot fibers each);
2. each round, *probe* a few unselected candidate configurations at a
   single pivot index (one cell each — an honest budget charge), and
   compare the probe against the current M2TD model's prediction;
3. promote the candidates with the largest model mismatch to full
   fibers — the places where the model is most wrong are where new
   simulations teach it the most;
4. repeat until the cell budget is exhausted, then fit the final
   model.

The comparison target is non-adaptive random selection of the same
number of cells (the experiment/benches pit the two against each
other on ground truth the loop itself never peeks at).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..core.m2td import M2TDResult, m2td_decompose
from ..core.pipeline import EnsembleStudy
from ..exceptions import BudgetError, SamplingError
from ..sampling.partition import PFPartition
from ..tensor.random import SeedLike, make_rng
from ..tensor.sparse import SparseTensor


# ----------------------------------------------------------------------
# sub-ensemble geometry + per-cell model error, shared with
# repro.campaigns (the campaign allocator scores candidate cells with
# exactly the builder's mismatch oracle).
# ----------------------------------------------------------------------
def free_modes(partition: PFPartition, which: int) -> Tuple[int, ...]:
    """Original-tensor modes forming sub-system ``which``'s free space."""
    return partition.s1_free if which == 1 else partition.s2_free


def fixing_flat(partition: PFPartition, which: int) -> int:
    """Flat free-space index of sub-system ``which``'s fixing
    constants (where the *other* system's cells live in join space)."""
    modes = free_modes(partition, which)
    indices = tuple(partition.fixed_indices[m] for m in modes)
    shape = tuple(partition.shape[m] for m in modes)
    return int(np.ravel_multi_index(indices, shape))


def free_coords(
    partition: PFPartition, which: int, flat: np.ndarray
) -> np.ndarray:
    """Free-space coordinates for flat free-config indices."""
    shape = tuple(partition.shape[m] for m in free_modes(partition, which))
    return np.stack(np.unravel_index(flat, shape), axis=1)


def predict_cells(
    model: M2TDResult,
    partition: PFPartition,
    which: int,
    free_flat: np.ndarray,
    pivot_flat: int,
) -> np.ndarray:
    """Stitched-model predictions for sub-system cells at one pivot
    configuration — the per-cell reconstruction oracle.  Comparing
    these against freshly simulated values gives the model-mismatch
    signal that drives both the adaptive builder's promotions and the
    campaign orchestrator's budget allocation."""
    reconstruction = model.tucker.reconstruct()
    pivot_index = np.unravel_index(pivot_flat, partition.pivot_shape)
    n_free1 = int(np.prod(partition.free_shape(1)))
    n_free2 = int(np.prod(partition.free_shape(2)))
    block = reconstruction[pivot_index].reshape(n_free1, n_free2)
    free_flat = np.asarray(free_flat)
    if which == 1:
        return block[free_flat, fixing_flat(partition, 2)]
    return block[fixing_flat(partition, 1), free_flat]


def cell_errors(
    model: M2TDResult,
    partition: PFPartition,
    which: int,
    free_flat: np.ndarray,
    observed: np.ndarray,
    pivot_flat: int,
) -> np.ndarray:
    """Absolute model mismatch per probed cell."""
    predicted = predict_cells(model, partition, which, free_flat, pivot_flat)
    return np.abs(np.asarray(observed) - predicted)


@dataclass
class AdaptiveRound:
    """Diagnostics of one adaptive round."""

    round_index: int
    probes: int
    promoted: Tuple[int, int]
    cells_used: int
    model_mismatch: float


@dataclass
class AdaptiveResult:
    """Outcome of the adaptive loop."""

    result: M2TDResult
    cells_used: int
    rounds: List[AdaptiveRound] = field(default_factory=list)
    selected: Dict[int, np.ndarray] = field(default_factory=dict)


class AdaptiveEnsembleBuilder:
    """Model-guided incremental construction of the two sub-ensembles.

    Parameters
    ----------
    study:
        The ensemble study (its oracle is the simulator: reading a
        cell *charges* the budget).
    partition:
        PF-partition of the study's space.
    ranks:
        Target rank per original mode.
    variant:
        M2TD variant used for the intermediate and final fits.
    initial_fraction:
        Fraction of each free space selected up-front, at random.
    batch_size:
        Configurations promoted to full fibers per sub-system per
        round.
    probe_factor:
        Candidates probed per promotion slot.
    seed:
        RNG seed.
    """

    def __init__(
        self,
        study: EnsembleStudy,
        partition: PFPartition,
        ranks,
        variant: str = "select",
        initial_fraction: float = 0.2,
        batch_size: int = 2,
        probe_factor: int = 3,
        seed: SeedLike = None,
    ):
        if not 0.0 < initial_fraction < 1.0:
            raise SamplingError(
                f"initial_fraction must be in (0, 1), got {initial_fraction}"
            )
        if batch_size < 1 or probe_factor < 1:
            raise SamplingError("batch_size and probe_factor must be >= 1")
        self.study = study
        self.partition = partition
        self.ranks = list(ranks)
        self.variant = variant
        self.initial_fraction = float(initial_fraction)
        self.batch_size = int(batch_size)
        self.probe_factor = int(probe_factor)
        self._rng = make_rng(seed)
        self._pivot_size = partition.pivot_space_size
        self._free_sizes = {
            1: partition.free_space_size(1),
            2: partition.free_space_size(2),
        }
        # The frozen-side free index each sub-ensemble cell maps to in
        # join space (the other system's fixing constants).
        self._fixed_free_flat = {
            1: fixing_flat(partition, 2),
            2: fixing_flat(partition, 1),
        }

    # ------------------------------------------------------------------
    def _free_coords(self, which: int, flat: np.ndarray) -> np.ndarray:
        return free_coords(self.partition, which, flat)

    def _fiber_sub_coords(self, which: int, flat: np.ndarray) -> np.ndarray:
        """Sub-space coordinates of the full pivot fibers of the given
        free configs."""
        pivot_shape = self.partition.pivot_shape
        pivots = np.stack(
            np.unravel_index(np.arange(self._pivot_size), pivot_shape),
            axis=1,
        )
        free = self._free_coords(which, flat)
        n_pivot = pivots.shape[0]
        n_free = free.shape[0]
        return np.hstack(
            [
                np.tile(pivots, (n_free, 1)),
                np.repeat(free, n_pivot, axis=0),
            ]
        )

    def _read_cells(self, which: int, sub_coords: np.ndarray) -> np.ndarray:
        """Run the simulations for these sub-space cells."""
        full = self.partition.embed_coords(which, sub_coords)
        return self.study.oracle.cells(full)

    def _sub_tensor(self, which: int, selected_flat: np.ndarray) -> SparseTensor:
        coords = self._fiber_sub_coords(which, selected_flat)
        values = self._read_cells(which, coords)
        return SparseTensor(self.partition.sub_shape(which), coords, values)

    def _fit(self, selected: Dict[int, np.ndarray]) -> M2TDResult:
        x1 = self._sub_tensor(1, selected[1])
        x2 = self._sub_tensor(2, selected[2])
        return m2td_decompose(
            x1, x2, self.partition, self.ranks, variant=self.variant
        )

    def _predict(self, model: M2TDResult, which: int, free_flat: np.ndarray,
                 pivot_flat: int) -> np.ndarray:
        """Model predictions for sub-system cells at one pivot config."""
        return predict_cells(
            model, self.partition, which, free_flat, pivot_flat
        )

    # ------------------------------------------------------------------
    def run(self, total_cells: int, max_rounds: int = 50) -> AdaptiveResult:
        """Grow the ensembles until ``total_cells`` is exhausted."""
        total_cells = int(total_cells)
        fiber_cost = self._pivot_size
        minimum = 2 * max(
            1, int(round(self.initial_fraction * min(self._free_sizes.values())))
        ) * fiber_cost
        if total_cells < minimum:
            raise BudgetError(
                f"total_cells {total_cells} below the initial selection "
                f"cost {minimum}"
            )
        selected: Dict[int, np.ndarray] = {}
        cells = 0
        for which in (1, 2):
            count = max(
                1,
                int(round(self.initial_fraction * self._free_sizes[which])),
            )
            selected[which] = np.sort(
                self._rng.choice(
                    self._free_sizes[which], size=count, replace=False
                )
            )
            cells += count * fiber_cost
        rounds: List[AdaptiveRound] = []
        model = self._fit(selected)
        probe_pivot = self._pivot_size // 2
        for round_index in range(max_rounds):
            # Cost of one full round: probes + promoted fibers.
            n_probe = {
                which: min(
                    self.probe_factor * self.batch_size,
                    self._free_sizes[which] - selected[which].shape[0],
                )
                for which in (1, 2)
            }
            if all(n == 0 for n in n_probe.values()):
                break
            round_cost = sum(n_probe.values())
            promote_counts = {
                which: min(self.batch_size, n_probe[which])
                for which in (1, 2)
            }
            round_cost += sum(
                promote_counts[w] * (fiber_cost - 1) for w in (1, 2)
            )
            if cells + round_cost > total_cells:
                break
            mismatch_total = 0.0
            probes_total = 0
            for which in (1, 2):
                if n_probe[which] == 0:
                    continue
                candidates = np.setdiff1d(
                    np.arange(self._free_sizes[which]), selected[which]
                )
                probe_flat = self._rng.choice(
                    candidates, size=n_probe[which], replace=False
                )
                pivot_coords = np.stack(
                    np.unravel_index(
                        np.full(probe_flat.shape[0], probe_pivot),
                        self.partition.pivot_shape,
                    ),
                    axis=1,
                )
                probe_coords = np.hstack(
                    [pivot_coords, self._free_coords(which, probe_flat)]
                )
                observed = self._read_cells(which, probe_coords)
                predicted = self._predict(
                    model, which, probe_flat, probe_pivot
                )
                residual = np.abs(observed - predicted)
                order = np.argsort(-residual)[: promote_counts[which]]
                promoted = probe_flat[order]
                selected[which] = np.sort(
                    np.concatenate([selected[which], promoted])
                )
                mismatch_total += float(residual.sum())
                probes_total += int(probe_flat.shape[0])
            cells += round_cost
            model = self._fit(selected)
            rounds.append(
                AdaptiveRound(
                    round_index=round_index,
                    probes=probes_total,
                    promoted=(
                        promote_counts[1],
                        promote_counts[2],
                    ),
                    cells_used=cells,
                    model_mismatch=mismatch_total,
                )
            )
        return AdaptiveResult(
            result=model, cells_used=cells, rounds=rounds, selected=selected
        )


def random_reference(
    study: EnsembleStudy,
    partition: PFPartition,
    ranks,
    total_cells: int,
    variant: str = "select",
    seed: SeedLike = None,
) -> Tuple[M2TDResult, int]:
    """Non-adaptive counterpart: random full fibers at the same budget."""
    rng = make_rng(seed)
    fiber_cost = partition.pivot_space_size
    per_side = max(1, int(total_cells // (2 * fiber_cost)))
    builder = AdaptiveEnsembleBuilder(
        study, partition, ranks, variant=variant, seed=rng
    )
    selected = {}
    cells = 0
    for which in (1, 2):
        size = partition.free_space_size(which)
        count = min(per_side, size)
        selected[which] = np.sort(
            rng.choice(size, size=count, replace=False)
        )
        cells += count * fiber_cost
    return builder._fit(selected), cells
