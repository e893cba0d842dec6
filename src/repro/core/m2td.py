"""The Multi-Task Tensor Decomposition engine (paper Section VI).

All three variants share one skeleton (Algorithms 2-4):

1. matricize each sub-ensemble tensor along each of its modes;
2. for each shared *pivot* mode, derive factor matrices from both
   sub-tensors and combine them (this is where the variants differ:
   AVG averages, CONCAT concatenates matricizations before the SVD,
   SELECT keeps the higher-energy row per entity);
3. for each free mode, take the factor matrix from the sub-tensor that
   owns the mode;
4. recover the core ``G = J x_1 U^(1)T ... x_N U^(N)T`` of the join
   tensor ``J``.

:func:`m2td_decompose` implements the skeleton; its ``variant``
argument picks the pivot combiner.  The inputs pick the core route:
a join of two complete sub-ensembles has the closed form
``J(p, a, b) = (X1(p, a) + X2(p, b)) / 2`` and takes
:func:`~repro.core.join_tensor.lazy_core`, which never builds ``J``;
every other stitch materializes ``J`` first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sps

from ..exceptions import RankError, StitchError
from ..observability import span as _span
from ..sampling.partition import PFPartition
from ..tensor.sparse import SparseTensor
from ..tensor.svd import leading_left_singular_vectors, truncated_svd
from ..tensor.tucker import TuckerTensor
from ..tensor.unfold import unfold
from .evaluation import accuracy
from .join_tensor import lazy_core, materialized_core
from .row_select import average_factors, row_select
from .stitch import dense_join, dense_to_original_order

TensorLike = Union[np.ndarray, SparseTensor]

#: Pivot combiner operating on factor matrices (AVG, SELECT).
FactorCombiner = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class M2TDResult:
    """Outcome of one M2TD decomposition.

    Attributes
    ----------
    tucker:
        The join-tensor decomposition, factors in *join* mode order.
    partition:
        The PF-partition that produced it.
    variant:
        ``"avg"``, ``"concat"`` or ``"select"``.
    join_kind:
        ``"join"`` or ``"zero"``.
    join_nnz:
        Stored entries of the stitched join tensor (its effective
        density numerator); every cell of the join space when two
        complete sub-ensembles are joined.
    phase_seconds:
        Wall-clock split mirroring D-M2TD's phases:
        ``sub_decompose`` / ``stitch`` / ``core``.
    """

    tucker: TuckerTensor
    partition: PFPartition
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


def _matricize(tensor: TensorLike, mode: int):
    if isinstance(tensor, SparseTensor):
        return tensor.unfold_csr(mode)
    return unfold(np.asarray(tensor), mode)


def _concat_matricizations(m1, m2):
    if sps.issparse(m1) or sps.issparse(m2):
        return sps.hstack(
            [sps.csr_matrix(m1), sps.csr_matrix(m2)], format="csr"
        )
    return np.hstack([np.asarray(m1), np.asarray(m2)])


def _clip_rank(rank: int, shape: Tuple[int, int]) -> int:
    return max(1, min(int(rank), min(int(shape[0]), int(shape[1]))))


def _factor_pair(matrix, rank: int):
    """``(U, s)``: leading left singular vectors and singular values."""
    u, s, _vt = truncated_svd(matrix, _clip_rank(rank, matrix.shape))
    return u, s


def _leading_factor(matrix, rank: int) -> np.ndarray:
    return leading_left_singular_vectors(
        matrix, _clip_rank(rank, matrix.shape)
    )


def map_ranks_to_join(
    partition: PFPartition, ranks: Sequence[int]
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


def _is_complete(tensor: TensorLike) -> bool:
    """Every cell observed: always for a dense array; for a sparse
    tensor when each cell is stored (duplicates are already averaged
    away, and stored zeros count)."""
    return not isinstance(tensor, SparseTensor) or tensor.nnz == tensor.size


def _sub_dense(tensor: TensorLike) -> np.ndarray:
    if isinstance(tensor, SparseTensor):
        return tensor.to_dense()
    return np.asarray(tensor, dtype=np.float64)


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
        ``"join"`` (Section V-C1) or ``"zero"`` (Section V-C2).  A
        join of two complete sub-ensembles recovers the core in closed
        form (the ``m2td-core`` span's ``core_route`` says which route
        ran); every other stitch materializes the join tensor.

    Returns
    -------
    M2TDResult
    """
    if variant not in ("avg", "concat", "select"):
        raise StitchError(f"unknown M2TD variant {variant!r}")
    if join_kind not in ("join", "zero"):
        raise StitchError(f"unknown join kind {join_kind!r}")
    for label, sub in (("x1", x1), ("x2", x2)):
        values = sub.values if isinstance(sub, SparseTensor) else sub
        if not np.isfinite(values).all():
            # fail typed here, not as an untyped SVD non-convergence
            raise StitchError(
                f"sub-ensemble {label} has non-finite values"
            )
    join_ranks = map_ranks_to_join(partition, ranks)
    k = partition.k
    f1 = len(partition.s1_free)

    # ------------------------------------------------------- phase 1
    started = time.perf_counter()
    factors: List[Optional[np.ndarray]] = [None] * partition.n_modes
    for axis in range(k):
        with _span(
            "pivot-factor", "stitch-factor", mode=axis, variant=variant
        ):
            m1 = _matricize(x1, axis)
            m2 = _matricize(x2, axis)
            rank = join_ranks[axis]
            if variant == "concat":
                combined = _concat_matricizations(m1, m2)
                factors[axis] = _leading_factor(combined, rank)
            else:
                u1, s1 = _factor_pair(m1, rank)
                u2, s2 = _factor_pair(m2, rank)
                width = min(u1.shape[1], u2.shape[1])
                u1, u2 = u1[:, :width], u2[:, :width]
                s1, s2 = s1[:width], s2[:width]
                if variant == "avg":
                    factors[axis] = average_factors(u1, u2)
                else:
                    factors[axis] = row_select(u1, u2, s1, s2)
    with _span("free-factors", "decompose", variant=variant):
        for offset in range(f1):
            axis = k + offset
            factors[axis] = _leading_factor(
                _matricize(x1, axis), join_ranks[axis]
            )
        for offset in range(len(partition.s2_free)):
            axis = k + f1 + offset
            factors[axis] = _leading_factor(
                _matricize(x2, k + offset), join_ranks[axis]
            )
    sub_decompose_seconds = time.perf_counter() - started

    # ------------------------------------------------------- phase 2
    closed_form = (
        join_kind == "join" and _is_complete(x1) and _is_complete(x2)
    )
    started = time.perf_counter()
    with _span(
        "m2td-stitch", "stitch", join_kind=join_kind, variant=variant,
    ) as stitch_span:
        if closed_form:
            # J(p, a, b) = (X1(p, a) + X2(p, b)) / 2 fills every cell;
            # the core needs only X1 and X2, never J itself.
            subs = (_sub_dense(x1), _sub_dense(x2))
            join_nnz = int(np.prod(partition.join_shape))
        else:
            # Broadcast the two (values, observed) layouts straight into
            # the dense J and its stored-cell mask; no COO tensor.
            join_dense, _stored, join_nnz = dense_join(
                x1, x2, partition, join_kind
            )
        stitch_span.set(join_nnz=join_nnz)
    stitch_seconds = time.perf_counter() - started

    # ------------------------------------------------------- phase 3
    started = time.perf_counter()
    with _span(
        "m2td-core", "decompose", variant=variant,
        core_route="closed-form" if closed_form else "materialized",
    ):
        factor_list = [np.asarray(f) for f in factors]
        if closed_form:
            core = lazy_core(*subs, factor_list, partition)
        else:
            core = materialized_core(join_dense, factor_list)
    core_seconds = time.perf_counter() - started

    return M2TDResult(
        tucker=TuckerTensor(core, factor_list),
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
