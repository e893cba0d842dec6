"""The three D-M2TD MapReduce phases (paper Section VI-D).

Phase 1 — parallel sub-tensor decomposition: one reduce task per
sub-tensor computes its per-mode factor matrices (and singular
values, which M2TD-SELECT's energy comparison consumes).

Phase 2 — parallel JE-stitching: cells shuffle on their pivot
configuration; one reduce task per pivot configuration builds that
pivot's join (or zero-join) block.

Phase 3 — parallel core recovery: join blocks shuffle on the pivot
configuration again; each reduce task projects its block onto the
free-mode factor subspaces and weights it by the pivot factor rows;
the driver sums the per-pivot contributions into the core.

All three reduce functions are module-level callable classes built
from plain data (ranks, candidate arrays, factor matrices), so every
phase pickles cleanly and can be dispatched to external worker
processes by the supervised engine — not just run on threads.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.m2td import clip_rank
from ..exceptions import MapReduceError
from ..sampling.partition import PFPartition
from ..tensor.sparse import SparseTensor
from ..tensor.svd import truncated_svds
from ..tensor.ttm import multi_ttm
from ..tensor.unfold import unfold
from ..tensor.ops import outer
from .mapreduce import MapReduceJob, Record


# ----------------------------------------------------------------------
# phase 1: parallel sub-tensor decomposition
# ----------------------------------------------------------------------
class Phase1Reduce:
    """Decompose one sub-tensor: the truncated SVDs of all its dense
    unfoldings in one batched call, the single-node M2TD factor route.

    ``ranks_per_mode[kappa]`` holds the target rank for each mode of
    sub-tensor ``kappa``.
    """

    def __init__(self, ranks_per_mode: Dict[int, Tuple[int, ...]]):
        self.ranks_per_mode = ranks_per_mode

    def __call__(self, kappa, values) -> Iterable[Record]:
        (tensor,) = values
        if not isinstance(tensor, SparseTensor):
            raise MapReduceError("phase 1 expects SparseTensor payloads")
        # Unobserved cells and a stored -0.0 read as 0.0, as in
        # m2td_decompose.
        dense = np.zeros(tensor.shape)
        dense[tuple(tensor.coords.T)] = tensor.values + 0.0
        ranks = self.ranks_per_mode[kappa]
        unfoldings = [unfold(dense, mode) for mode in range(len(ranks))]
        svds = truncated_svds(unfoldings, [
            clip_rank(rank, m.shape) for rank, m in zip(ranks, unfoldings)
        ])
        for mode, (u, s, _vt) in enumerate(svds):
            yield ("factor", (kappa, mode, u, s))


def phase1_job(ranks_per_mode: Dict[int, Tuple[int, ...]]) -> MapReduceJob:
    """Job decomposing each sub-tensor independently."""
    return MapReduceJob(
        name="phase1-sub-decompose",
        reduce_fn=Phase1Reduce(ranks_per_mode),
        map_tasks=2,
    )


def phase1_records(
    x1: SparseTensor, x2: SparseTensor
) -> List[Record]:
    return [(1, x1), (2, x2)]


# ----------------------------------------------------------------------
# phase 2: parallel JE-stitching
# ----------------------------------------------------------------------
def _split_flat(
    tensor: SparseTensor, partition: PFPartition, which: int
) -> Tuple[np.ndarray, np.ndarray]:
    k = partition.k
    pivot_flat = (
        np.ravel_multi_index(
            tuple(tensor.coords[:, :k].T), partition.pivot_shape
        )
        if tensor.nnz
        else np.empty(0, dtype=np.int64)
    )
    free_flat = (
        np.ravel_multi_index(
            tuple(tensor.coords[:, k:].T), partition.free_shape(which)
        )
        if tensor.nnz
        else np.empty(0, dtype=np.int64)
    )
    return pivot_flat, free_flat


def phase2_records(
    x1: SparseTensor, x2: SparseTensor, partition: PFPartition
) -> List[Record]:
    """One record per (sub-tensor, pivot configuration)."""
    records: List[Record] = []
    for which, tensor in ((1, x1), (2, x2)):
        pivot_flat, free_flat = _split_flat(tensor, partition, which)
        for pivot in np.unique(pivot_flat):
            mask = pivot_flat == pivot
            records.append(
                (
                    int(pivot),
                    (which, free_flat[mask], tensor.values[mask]),
                )
            )
    return records


class Phase2Reduce:
    """Build one join (or zero-join) block for one pivot
    configuration."""

    def __init__(
        self,
        join_kind: str,
        candidates1: Optional[np.ndarray] = None,
        candidates2: Optional[np.ndarray] = None,
    ):
        self.join_kind = join_kind
        self.candidates1 = candidates1
        self.candidates2 = candidates2

    def __call__(self, pivot, values) -> Iterable[Record]:
        join_kind = self.join_kind
        candidates1 = self.candidates1
        candidates2 = self.candidates2
        side1 = [(f, v) for which, f, v in values if which == 1]
        side2 = [(f, v) for which, f, v in values if which == 2]
        frees1 = (
            np.concatenate([f for f, _v in side1])
            if side1
            else np.empty(0, dtype=np.int64)
        )
        vals1 = (
            np.concatenate([v for _f, v in side1]) if side1 else np.empty(0)
        )
        frees2 = (
            np.concatenate([f for f, _v in side2])
            if side2
            else np.empty(0, dtype=np.int64)
        )
        vals2 = (
            np.concatenate([v for _f, v in side2]) if side2 else np.empty(0)
        )
        if join_kind == "join":
            if frees1.size == 0 or frees2.size == 0:
                return
            a = np.repeat(frees1, frees2.size)
            b = np.tile(frees2, frees1.size)
            v = 0.5 * (np.repeat(vals1, frees2.size) + np.tile(vals2, frees1.size))
            yield (pivot, (a, b, v))
            return
        # zero-join: pair every observed cell with every candidate on
        # the other side, completing the average where both exist.
        cand1 = candidates1 if candidates1 is not None else np.unique(frees1)
        cand2 = candidates2 if candidates2 is not None else np.unique(frees2)
        blocks_a, blocks_b, blocks_v = [], [], []
        if frees1.size and cand2.size:
            order2 = np.argsort(frees2)
            f2s, v2s = frees2[order2], vals2[order2]
            pos = np.searchsorted(f2s, cand2)
            hit = (
                (pos < f2s.size) & (f2s[pos.clip(max=max(f2s.size - 1, 0))] == cand2)
                if f2s.size
                else np.zeros(cand2.size, dtype=bool)
            )
            x2_at = np.zeros(cand2.size)
            if f2s.size:
                x2_at[hit] = v2s[pos[hit]]
            blocks_a.append(np.repeat(frees1, cand2.size))
            blocks_b.append(np.tile(cand2, frees1.size))
            blocks_v.append(
                0.5 * (np.repeat(vals1, cand2.size) + np.tile(x2_at, frees1.size))
            )
        if frees2.size and cand1.size:
            if frees1.size:
                order1 = np.argsort(frees1)
                f1s = frees1[order1]
                pos = np.searchsorted(f1s, cand1)
                observed = (pos < f1s.size) & (
                    f1s[pos.clip(max=f1s.size - 1)] == cand1
                )
            else:
                observed = np.zeros(cand1.size, dtype=bool)
            missing = cand1[~observed]
            if missing.size:
                blocks_a.append(np.tile(missing, frees2.size))
                blocks_b.append(np.repeat(frees2, missing.size))
                blocks_v.append(0.5 * np.repeat(vals2, missing.size))
        if blocks_v:
            yield (
                pivot,
                (
                    np.concatenate(blocks_a),
                    np.concatenate(blocks_b),
                    np.concatenate(blocks_v),
                ),
            )


def phase2_job(
    partition: PFPartition,
    join_kind: str = "join",
    candidates1: Optional[np.ndarray] = None,
    candidates2: Optional[np.ndarray] = None,
) -> MapReduceJob:
    """Job building one join block per pivot configuration.

    Emits ``(pivot, (free1_flat, free2_flat, values))`` records.
    """
    if join_kind not in ("join", "zero"):
        raise MapReduceError(f"unknown join kind {join_kind!r}")
    return MapReduceJob(
        name="phase2-je-stitch",
        reduce_fn=Phase2Reduce(join_kind, candidates1, candidates2),
        map_tasks=4,
    )


# ----------------------------------------------------------------------
# phase 3: parallel core recovery
# ----------------------------------------------------------------------
class Phase3Reduce:
    """Project one pivot's join block into core space.

    Densifies the block over the free sub-spaces, projects it onto the
    free-mode factor subspaces, and scales by the pivot factor rows;
    emits one partial core per pivot.  Carries only factor-matrix-sized
    state (the free/pivot shapes and the factor matrices themselves),
    which is exactly the payload the supervised engine ships per task.
    """

    def __init__(
        self,
        free_shape1: Tuple[int, ...],
        free_shape2: Tuple[int, ...],
        pivot_shape: Tuple[int, ...],
        pivot_factors: List[np.ndarray],
        s1_factors: List[np.ndarray],
        s2_factors: List[np.ndarray],
    ):
        self.free_shape1 = tuple(free_shape1)
        self.free_shape2 = tuple(free_shape2)
        self.pivot_shape = tuple(pivot_shape)
        self.pivot_factors = list(pivot_factors)
        self.s1_factors = list(s1_factors)
        self.s2_factors = list(s2_factors)

    def __call__(self, pivot, values) -> Iterable[Record]:
        block = np.zeros(self.free_shape1 + self.free_shape2)
        flat = block.reshape(
            int(np.prod(self.free_shape1)), int(np.prod(self.free_shape2))
        )
        for a, b, v in values:
            # duplicate (a, b) pairs across records average naturally
            # because phase 2 emits each pair at most once per pivot.
            flat[a, b] = v
        projected = multi_ttm(
            block, self.s1_factors + self.s2_factors, transpose=True
        )
        pivot_multi = np.unravel_index(int(pivot), self.pivot_shape)
        pivot_rows = [
            factor[index]
            for factor, index in zip(self.pivot_factors, pivot_multi)
        ]
        weight = pivot_rows[0] if len(pivot_rows) == 1 else outer(pivot_rows)
        yield ("core", np.multiply.outer(weight, projected))


def phase3_job(
    partition: PFPartition,
    pivot_factors: List[np.ndarray],
    s1_factors: List[np.ndarray],
    s2_factors: List[np.ndarray],
) -> MapReduceJob:
    """Job projecting each pivot's join block into core space."""
    return MapReduceJob(
        name="phase3-core-recovery",
        reduce_fn=Phase3Reduce(
            partition.free_shape(1),
            partition.free_shape(2),
            partition.pivot_shape,
            pivot_factors,
            s1_factors,
            s2_factors,
        ),
        map_tasks=4,
    )
