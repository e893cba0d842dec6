"""JE-stitching: join and zero-join of PF-partitioned sub-ensembles
(paper Section V-C).

Both stitches combine two sub-ensemble tensors ``X1`` and ``X2``
(given in *sub-space* coordinates, pivot modes first) into the join
tensor ``J`` whose modes are ``pivot + S1-free + S2-free``:

* **join** pairs every observed ``X1(p, a)`` with every observed
  ``X2(p, b)`` sharing the pivot configuration ``p`` and stores their
  average at ``J(p, a, b)``;
* **zero-join** additionally pairs a one-sided observation with every
  *candidate* configuration of the other side, treating the missing
  value as 0 — boosting effective density when per-pivot observations
  are partial (Section V-C2).  A side's candidates are the distinct
  free configurations observed anywhere in that sub-ensemble.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..exceptions import StitchError
from ..observability import get_metrics, span as _span
from ..sampling.partition import PFPartition
from ..tensor.sparse import SparseTensor


def _flatten(coords: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Row-wise flat encoding of multi-indices (C order)."""
    if coords.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return np.ravel_multi_index(tuple(coords.T), shape)


def _unflatten(flat: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    return np.stack(np.unravel_index(flat, shape), axis=1)


def _split_sub_coords(
    tensor: SparseTensor, partition: PFPartition, which: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Split a sub-ensemble's coords into (pivot flat, free flat)."""
    expected = partition.sub_shape(which)
    if tensor.shape != expected:
        raise StitchError(
            f"sub-ensemble {which} has shape {tensor.shape}, partition "
            f"expects {expected}"
        )
    k = partition.k
    pivot_flat = _flatten(tensor.coords[:, :k], partition.pivot_shape)
    free_flat = _flatten(tensor.coords[:, k:], partition.free_shape(which))
    return pivot_flat, free_flat


def _group_by_pivot(
    pivot_flat: np.ndarray, free_flat: np.ndarray, values: np.ndarray
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """``{pivot: (free indices, values)}`` with free indices sorted."""
    groups: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    order = np.argsort(pivot_flat, kind="stable")
    pivot_sorted = pivot_flat[order]
    free_sorted = free_flat[order]
    values_sorted = values[order]
    boundaries = np.flatnonzero(np.diff(pivot_sorted)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [pivot_sorted.shape[0]]])
    for start, end in zip(starts, ends):
        if start == end:
            continue
        pivot = int(pivot_sorted[start])
        frees = free_sorted[start:end]
        vals = values_sorted[start:end]
        inner = np.argsort(frees, kind="stable")
        groups[pivot] = (frees[inner], vals[inner])
    return groups


def _assemble(
    partition: PFPartition,
    pivot_parts: list,
    free1_parts: list,
    free2_parts: list,
    value_parts: list,
) -> SparseTensor:
    """Stack per-pivot blocks into the join tensor (join mode order).

    Blocks arrive pivot-major with per-pivot free indices sorted and no
    duplicate cells, so the combined flat key is strictly increasing
    for the plain join already, and needs only a single stable argsort
    for the zero-join — either way the tensor can be built through
    :meth:`SparseTensor.from_canonical`, skipping the constructor's
    full lexsort + dedup pass (the dominant cost of ``m2td.*``
    workloads).  Should a duplicate ever appear, the sorted key is no
    longer strictly increasing and the full averaging constructor takes
    over, byte-identical to the historical behavior.
    """
    join_shape = partition.join_shape
    if not value_parts:
        return SparseTensor(join_shape)
    pivots = np.concatenate(pivot_parts)
    free1 = np.concatenate(free1_parts)
    free2 = np.concatenate(free2_parts)
    values = np.concatenate(value_parts)
    n_free1 = int(np.prod(partition.free_shape(1)))
    n_free2 = int(np.prod(partition.free_shape(2)))
    flat = (pivots * n_free1 + free1) * n_free2 + free2
    if flat.shape[0] > 1 and not (np.diff(flat) > 0).all():
        # Same permutation a C-order lexsort of the coords would give:
        # the flat key encodes the join coordinate uniquely, and the
        # stable sort preserves input order on (would-be) ties.
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        pivots, free1, free2 = pivots[order], free1[order], free2[order]
        values = values[order]
    coords = np.hstack(
        [
            _unflatten(pivots, partition.pivot_shape),
            _unflatten(free1, partition.free_shape(1)),
            _unflatten(free2, partition.free_shape(2)),
        ]
    )
    if flat.shape[0] > 1 and not (np.diff(flat) > 0).all():
        return SparseTensor(join_shape, coords, values)
    return SparseTensor.from_canonical(join_shape, coords, values)


def join_tensor(
    x1: SparseTensor, x2: SparseTensor, partition: PFPartition
) -> SparseTensor:
    """Join-based stitching (Section V-C1).

    Returns the join tensor in *join mode order* (pivots, S1 free,
    S2 free); use :func:`to_original_order` to permute it back to the
    system's native mode order.
    """
    with _span(
        "join-tensor", "stitch", nnz1=x1.nnz, nnz2=x2.nnz,
        join_shape=partition.join_shape,
    ) as sp:
        p1, f1 = _split_sub_coords(x1, partition, 1)
        p2, f2 = _split_sub_coords(x2, partition, 2)
        groups1 = _group_by_pivot(p1, f1, x1.values)
        groups2 = _group_by_pivot(p2, f2, x2.values)
        pivot_parts, free1_parts, free2_parts, value_parts = [], [], [], []
        for pivot, (frees1, vals1) in groups1.items():
            other = groups2.get(pivot)
            if other is None:
                continue
            frees2, vals2 = other
            n1, n2 = frees1.shape[0], frees2.shape[0]
            pivot_parts.append(np.full(n1 * n2, pivot, dtype=np.int64))
            free1_parts.append(np.repeat(frees1, n2))
            free2_parts.append(np.tile(frees2, n1))
            value_parts.append(
                0.5 * (np.repeat(vals1, n2) + np.tile(vals2, n1))
            )
        join = _assemble(
            partition, pivot_parts, free1_parts, free2_parts, value_parts
        )
        sp.set(join_nnz=join.nnz)
        metrics = get_metrics()
        metrics.counter("stitch.joins").inc()
        metrics.counter("stitch.join_nnz").inc(join.nnz)
        return join


def zero_join_tensor(
    x1: SparseTensor, x2: SparseTensor, partition: PFPartition
) -> SparseTensor:
    """Zero-join stitching (Section V-C2).

    Parameters
    ----------
    x1, x2:
        Sub-ensemble tensors in sub-space coordinates.
    partition:
        The PF-partition.

    For a pivot configuration ``p``: matched pairs average as in the
    plain join; an ``X1`` observation with no matching ``X2`` cell
    contributes ``x1 / 2`` at every candidate ``b`` (a free
    configuration ``X2`` observed at any pivot); symmetrically for
    ``X2``.
    """
    with _span(
        "zero-join-tensor", "stitch", nnz1=x1.nnz, nnz2=x2.nnz,
        join_shape=partition.join_shape,
    ) as sp:
        join = _zero_join(x1, x2, partition)
        sp.set(join_nnz=join.nnz)
        metrics = get_metrics()
        metrics.counter("stitch.joins").inc()
        metrics.counter("stitch.join_nnz").inc(join.nnz)
        return join


def _zero_join(
    x1: SparseTensor, x2: SparseTensor, partition: PFPartition
) -> SparseTensor:
    p1, f1 = _split_sub_coords(x1, partition, 1)
    p2, f2 = _split_sub_coords(x2, partition, 2)
    groups1 = _group_by_pivot(p1, f1, x1.values)
    groups2 = _group_by_pivot(p2, f2, x2.values)
    cand1 = np.unique(f1)
    cand2 = np.unique(f2)
    pivot_parts, free1_parts, free2_parts, value_parts = [], [], [], []
    all_pivots = sorted(set(groups1) | set(groups2))
    empty = (np.empty(0, dtype=np.int64), np.empty(0))
    for pivot in all_pivots:
        frees1, vals1 = groups1.get(pivot, empty)
        frees2, vals2 = groups2.get(pivot, empty)
        n1 = frees1.shape[0]
        n2 = frees2.shape[0]
        # X1 observations paired with every candidate b; where X2 also
        # observed b the average is completed below.
        if n1 and cand2.size:
            pivot_parts.append(
                np.full(n1 * cand2.size, pivot, dtype=np.int64)
            )
            free1_parts.append(np.repeat(frees1, cand2.size))
            free2_parts.append(np.tile(cand2, n1))
            # Look up X2 values at the candidate positions (0 if absent).
            positions = np.searchsorted(frees2, cand2)
            hit = (
                (positions < n2) & (frees2[positions.clip(max=max(n2 - 1, 0))] == cand2)
                if n2
                else np.zeros(cand2.size, dtype=bool)
            )
            x2_at_cand = np.zeros(cand2.size)
            if n2:
                x2_at_cand[hit] = vals2[positions[hit]]
            value_parts.append(
                0.5 * (np.repeat(vals1, cand2.size) + np.tile(x2_at_cand, n1))
            )
        # X2 observations with no X1 partner, paired with candidates a.
        if n2 and cand1.size:
            if n1:
                positions = np.searchsorted(frees1, cand1)
                a_observed = (
                    positions < n1
                ) & (frees1[positions.clip(max=n1 - 1)] == cand1)
            else:
                a_observed = np.zeros(cand1.size, dtype=bool)
            missing_a = cand1[~a_observed]
            if missing_a.size:
                pivot_parts.append(
                    np.full(n2 * missing_a.size, pivot, dtype=np.int64)
                )
                free1_parts.append(np.tile(missing_a, n2))
                free2_parts.append(np.repeat(frees2, missing_a.size))
                value_parts.append(0.5 * np.repeat(vals2, missing_a.size))
    return _assemble(partition, pivot_parts, free1_parts, free2_parts, value_parts)


def to_original_order(
    join: SparseTensor, partition: PFPartition
) -> SparseTensor:
    """Permute a join-ordered tensor back to the original mode order."""
    return join.transpose(partition.join_to_original)


def dense_to_original_order(
    join_dense: np.ndarray, partition: PFPartition
) -> np.ndarray:
    """Dense counterpart of :func:`to_original_order`."""
    return np.transpose(join_dense, partition.join_to_original)
