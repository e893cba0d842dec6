"""The Multi-Task Tensor Decomposition engine (paper Section VI).

All three variants share one skeleton (Algorithms 2-4):

1. matricize each sub-ensemble tensor along each of its modes;
2. for each shared *pivot* mode, derive factor matrices from both
   sub-tensors and combine them (this is where the variants differ:
   AVG averages, CONCAT concatenates matricizations before the SVD,
   SELECT keeps the higher-energy row per entity);
3. for each free mode, take the factor matrix from the sub-tensor that
   owns the mode;
4. build the join tensor and recover the core
   ``G = J x_1 U^(1)T ... x_N U^(N)T``.

:func:`m2td_decompose` implements the skeleton; its ``variant``
argument picks the pivot combiner.
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
from .join_tensor import lazy_core, materialized_core
from .row_select import average_factors, procrustes_align, row_select
from .stitch import dense_to_original_order, join_tensor, zero_join_tensor

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
        ``"join"`` or ``"zero"`` (``"lazy"`` marks the closed-form
        core recovery on complete sub-ensembles).
    join_nnz:
        Stored entries of the stitched join tensor (its effective
        density numerator); 0 when the lazy path skipped
        materialisation.
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
        truth = np.asarray(truth)
        approx = self.reconstruct_original()
        denom = np.linalg.norm(truth.ravel())
        if denom == 0:
            raise StitchError("ground-truth tensor has zero norm")
        return 1.0 - np.linalg.norm((approx - truth).ravel()) / denom


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
    lazy: bool = False,
    zero_join_candidates: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    alignment: str = "sign",
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
        ``"join"`` (Section V-C1) or ``"zero"`` (Section V-C2).
    lazy:
        Use the closed-form core recovery (requires dense/complete
        sub-ensembles and ``join_kind="join"``).
    zero_join_candidates:
        Optional explicit candidate free-config arrays for zero-join.
    alignment:
        How the second sub-decomposition's pivot factors are aligned to
        the first before combining: ``"sign"`` (per-column sign flips,
        the default) or ``"procrustes"`` (full orthogonal rotation) —
        an implementation variant the paper leaves unspecified; see
        the row-energy ablation bench for the trade-off.

    Returns
    -------
    M2TDResult
    """
    if variant not in ("avg", "concat", "select"):
        raise StitchError(f"unknown M2TD variant {variant!r}")
    if join_kind not in ("join", "zero"):
        raise StitchError(f"unknown join kind {join_kind!r}")
    if lazy and join_kind != "join":
        raise StitchError("lazy core recovery requires join_kind='join'")
    if alignment not in ("sign", "procrustes"):
        raise StitchError(f"unknown alignment {alignment!r}")
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
                if alignment == "procrustes":
                    u2 = procrustes_align(u1, u2)
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
    started = time.perf_counter()
    join_nnz = 0
    join_dense: Optional[np.ndarray] = None
    with _span(
        "m2td-stitch", "stitch",
        join_kind="lazy" if lazy else join_kind, variant=variant,
    ) as stitch_span:
        if lazy:
            x1_dense = _sub_dense(x1)
            x2_dense = _sub_dense(x2)
        else:
            sparse1 = (
                x1
                if isinstance(x1, SparseTensor)
                else SparseTensor.from_dense(np.asarray(x1), keep_zeros=True)
            )
            sparse2 = (
                x2
                if isinstance(x2, SparseTensor)
                else SparseTensor.from_dense(np.asarray(x2), keep_zeros=True)
            )
            if join_kind == "join":
                join = join_tensor(sparse1, sparse2, partition)
            else:
                candidates1, candidates2 = zero_join_candidates or (None, None)
                join = zero_join_tensor(
                    sparse1, sparse2, partition, candidates1, candidates2
                )
            join_nnz = join.nnz
            stitch_span.set(join_nnz=join_nnz)
            join_dense = join.to_dense()
    stitch_seconds = time.perf_counter() - started

    # ------------------------------------------------------- phase 3
    started = time.perf_counter()
    with _span("m2td-core", "decompose", lazy=lazy, variant=variant):
        factor_list = [np.asarray(f) for f in factors]
        if lazy:
            core = lazy_core(x1_dense, x2_dense, factor_list, partition)
        else:
            core = materialized_core(join_dense, factor_list)
    core_seconds = time.perf_counter() - started

    return M2TDResult(
        tucker=TuckerTensor(core, factor_list),
        partition=partition,
        variant=variant,
        join_kind="lazy" if lazy else join_kind,
        join_nnz=join_nnz,
        phase_seconds={
            "sub_decompose": sub_decompose_seconds,
            "stitch": stitch_seconds,
            "core": core_seconds,
        },
    )
