"""The Multi-Task Tensor Decomposition engine (paper Section VI).

All three variants share one skeleton (Algorithms 2-4), run on one
dense ``(values, observed)`` layout per sub-ensemble
(:func:`~repro.core.stitch.observed_layout`):

1. unfold each sub-ensemble's dense layout along each of its modes;
2. for each shared *pivot* mode, derive factor matrices from every
   sub-tensor and combine them (this is where the variants differ:
   AVG averages, CONCAT concatenates matricizations before the SVD,
   SELECT keeps the higher-energy row per entity);
3. for each free mode, take the factor matrix from the sub-tensor that
   owns the mode;
4. recover the core ``G = J x_1 U^(1)T ... x_N U^(N)T`` of the join
   tensor ``J``.

:func:`decompose_sub_ensembles` implements the skeleton for ``m >= 2``
sub-ensembles; :func:`m2td_decompose` is the paper's two-sub-system
form and :func:`~repro.core.multiway.m2td_multiway` the multiway one.
The ``variant`` argument picks the pivot combiner.  The JE-stitch and
step 4 are one route for every join kind and every sampling:
:func:`~repro.core.join_tensor.join_core` projects each sub-ensemble's
layout onto its own factors and combines the small projections per
pivot, so ``J`` is never built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..exceptions import RankError, StitchError
from ..observability import get_metrics, span as _span
from ..sampling.partition import PFPartition
from ..tensor.sparse import SparseTensor
from ..tensor.svd import truncated_svd
from ..tensor.tucker import TuckerTensor
from ..tensor.unfold import unfold
from .evaluation import accuracy
from .join_tensor import join_core
from .row_select import combine_pivot_factors
from .stitch import Partition, dense_to_original_order, observed_layout

TensorLike = Union[np.ndarray, SparseTensor]


@dataclass
class M2TDResult:
    """Outcome of one M2TD decomposition.

    Attributes
    ----------
    tucker:
        The join-tensor decomposition, factors in *join* mode order.
    partition:
        The partition that produced it: a :class:`PFPartition`, or an
        ``m``-way :class:`~repro.core.multiway.MWPartition`.
    variant:
        ``"avg"``, ``"concat"`` or ``"select"``.
    join_kind:
        ``"join"`` or ``"zero"``.
    join_nnz:
        Stored entries of the stitched join tensor (its effective
        density numerator), counted without building it; every cell of
        the join space when two complete sub-ensembles are joined.
    phase_seconds:
        Wall-clock split mirroring D-M2TD's phases:
        ``sub_decompose`` / ``stitch`` / ``core``.  The single-node
        engine stitches inside the core projection, so its ``stitch``
        holds only the stitch's bookkeeping.
    """

    tucker: TuckerTensor
    partition: Partition
    variant: str
    join_kind: str
    join_nnz: int
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.phase_seconds.values()))

    def reconstruct_original(self) -> np.ndarray:
        """Dense reconstruction permuted to the system's mode order."""
        return dense_to_original_order(
            self.tucker.reconstruct(), self.partition
        )

    def accuracy(self, truth: np.ndarray) -> float:
        """Paper Section VII-D accuracy against the full-space tensor."""
        return accuracy(
            self.reconstruct_original(), truth, invalid_truth=StitchError
        )


def _clip_rank(rank: int, shape: Tuple[int, int]) -> int:
    return max(1, min(int(rank), min(int(shape[0]), int(shape[1]))))


def factor_pair(matrix: np.ndarray, rank: int):
    """``(U, s)``: leading left singular vectors and singular values.

    The one factor route of M2TD and D-M2TD: a LAPACK SVD of a dense
    unfolding of a sub-ensemble, never the Gram fast path of
    :func:`~repro.tensor.svd.leading_left_singular_vectors`.
    """
    u, s, _vt = truncated_svd(matrix, _clip_rank(rank, matrix.shape))
    return u, s


def map_ranks_to_join(
    partition: Partition, ranks: Sequence[int]
) -> Tuple[int, ...]:
    """Reorder per-original-mode ranks into join mode order."""
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != partition.n_modes:
        raise RankError(
            f"need one rank per mode ({partition.n_modes}), got {len(ranks)}"
        )
    if any(r < 1 for r in ranks):
        raise RankError(f"ranks must be >= 1, got {ranks}")
    return tuple(ranks[m] for m in partition.join_modes)


def m2td_decompose(
    x1: TensorLike,
    x2: TensorLike,
    partition: PFPartition,
    ranks: Sequence[int],
    variant: str = "select",
    join_kind: str = "join",
) -> M2TDResult:
    """Run M2TD on two PF-partitioned sub-ensemble tensors.

    Parameters
    ----------
    x1, x2:
        Sub-ensemble tensors in sub-space mode order (pivots first) —
        dense arrays or :class:`SparseTensor`.
    partition:
        The PF-partition relating them to the full space.
    ranks:
        Target rank per *original* mode (length ``N``); ranks are
        clipped per matricization where a small mode cannot supply
        them.
    variant:
        The pivot combiner.  ``"avg"`` (Algorithm 2) averages the two
        pivot factor matrices element-wise: cheapest, but the averaged
        columns are no longer singular vectors.  ``"concat"``
        (Algorithm 3) takes the leading left singular vectors of the
        two pivot matricizations concatenated side by side.
        ``"select"`` (Algorithms 4 and 5, the paper's best) keeps each
        entity's row from whichever sub-system represents it with more
        energy.
    join_kind:
        ``"join"`` (Section V-C1) or ``"zero"`` (Section V-C2).  Both
        recover the core without materializing the join tensor.

    Returns
    -------
    M2TDResult
    """
    return decompose_sub_ensembles(
        (x1, x2), partition, ranks, variant=variant, join_kind=join_kind
    )


def decompose_sub_ensembles(
    subs: Sequence[TensorLike],
    partition: Partition,
    ranks: Sequence[int],
    variant: str = "select",
    join_kind: str = "join",
) -> M2TDResult:
    """The M2TD engine: :func:`m2td_decompose` over ``m >= 2``
    sub-ensembles.

    ``subs`` holds one sub-ensemble per ``partition.sub_shapes`` entry
    (a :class:`PFPartition`'s two, or a
    :class:`~repro.core.multiway.MWPartition`'s ``m``).  The pivot
    combiner is ``m``-way; the join stores the mean of the ``m`` sides
    where all of them observed; zero-join takes two sub-ensembles.
    """
    if variant not in ("avg", "concat", "select"):
        raise StitchError(f"unknown M2TD variant {variant!r}")
    if join_kind not in ("join", "zero"):
        raise StitchError(f"unknown join kind {join_kind!r}")
    shapes = partition.sub_shapes
    if len(subs) != len(shapes):
        raise StitchError(
            f"need {len(shapes)} sub-ensembles, got {len(subs)}"
        )
    started = time.perf_counter()
    # One dense layout per sub-ensemble, (values, observed) shaped
    # (pivot cells, free cells), feeds all three phases.
    layouts = [
        observed_layout(x, partition, which)
        for which, x in enumerate(subs, 1)
    ]
    # Factors read a stored -0.0 as the observation 0.0: LAPACK's
    # Householder reflections tell the two apart.
    signed = []
    for which, ((values, _observed), shape) in enumerate(
        zip(layouts, shapes), 1
    ):
        if not np.isfinite(values).all():
            # fail typed here, not as an untyped SVD non-convergence
            raise StitchError(f"sub-ensemble x{which} has non-finite values")
        signed.append(values.reshape(shape) + 0.0)
    join_ranks = map_ranks_to_join(partition, ranks)
    k = partition.k

    # ------------------------------------------------------- phase 1
    factors: List[np.ndarray] = []
    for axis in range(k):
        with _span(
            "pivot-factor", "stitch-factor", mode=axis, variant=variant
        ):
            unfoldings = [unfold(sub, axis) for sub in signed]
            rank = join_ranks[axis]
            if variant == "concat":
                factors.append(factor_pair(np.hstack(unfoldings), rank)[0])
            else:
                pairs = [factor_pair(m, rank) for m in unfoldings]
                factors.append(combine_pivot_factors(
                    [u for u, _s in pairs], [s for _u, s in pairs], variant
                ))
    with _span("free-factors", "decompose", variant=variant):
        for sub in signed:
            for axis in range(k, sub.ndim):
                # len(factors) is the join axis of the next factor
                factors.append(factor_pair(
                    unfold(sub, axis), join_ranks[len(factors)]
                )[0])
    sub_decompose_seconds = time.perf_counter() - started

    # --------------------------------------------------- phases 2-3
    # One factored projection stitches and recovers the core per pivot;
    # J is never built, so the stitch span's own time is bookkeeping.
    complete = all(observed.all() for _values, observed in layouts)
    started = time.perf_counter()
    with _span(
        "m2td-stitch", "stitch", join_kind=join_kind, variant=variant,
    ) as stitch_span:
        with _span(
            "m2td-core", "decompose", variant=variant,
            join_kind=join_kind, complete=complete,
        ):
            core_started = time.perf_counter()
            core, join_nnz = join_core(layouts, factors, partition, join_kind)
            core_seconds = time.perf_counter() - core_started
        stitch_span.set(join_nnz=join_nnz)
        metrics = get_metrics()
        metrics.counter("stitch.joins").inc()
        metrics.counter("stitch.join_nnz").inc(join_nnz)
    stitch_seconds = time.perf_counter() - started - core_seconds

    return M2TDResult(
        tucker=TuckerTensor(core, factors),
        partition=partition,
        variant=variant,
        join_kind=join_kind,
        join_nnz=join_nnz,
        phase_seconds={
            "sub_decompose": sub_decompose_seconds,
            "stitch": stitch_seconds,
            "core": core_seconds,
        },
    )
