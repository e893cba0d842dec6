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

:func:`dense_join` materializes a stitch.  It takes each sub-ensemble's
:func:`observed_layout` (a ``(pivot cells, free cells)`` value array
plus a boolean observed mask ``m``), then forms both kinds by
broadcasting over ``(pivot, a, b)``:

* join: ``stored = m1 & m2``;
* zero-join: ``stored = (m1 & cand2) | (m2 & cand1)`` with
  ``cand = m.any(axis=0)``;
* values: ``(x1 + x2) / 2`` where ``X1`` observed ``(p, a)`` (a missing
  ``x2`` is ``0.0``), ``x2 / 2`` where only ``X2`` did, ``0.0`` where
  nothing is stored.

The join extends to the ``m`` sub-ensembles of a multiway partition
(:class:`~repro.core.multiway.MWPartition`): the ``m`` layouts
broadcast over ``(pivot, a_1, ..., a_m)``, a cell is stored where every
mask is set, and it holds the mean of the ``m`` values.  Zero-join
stays two-way.

A dense layout holds one value per cell, so the stitch cannot emit
duplicate cells; duplicate input coordinates are already averaged by
:class:`~repro.tensor.sparse.SparseTensor`.  :func:`join_tensor` and
:func:`zero_join_tensor` are sparse views of the same stitch.  M2TD
never materializes it: :func:`~repro.core.join_tensor.join_core`
projects the same layouts onto the factors per pivot.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Sequence, Tuple, Union

import numpy as np

from ..exceptions import PartitionError, StitchError
from ..observability import get_metrics, span as _span
from ..sampling.partition import PFPartition
from ..tensor.sparse import SparseTensor

if TYPE_CHECKING:  # pragma: no cover
    from .multiway import MWPartition

TensorLike = Union[np.ndarray, SparseTensor]
#: A two-way PF-partition or an ``m``-way one.
Partition = Union[PFPartition, "MWPartition"]

_SPAN_NAMES = {"join": "join-tensor", "zero": "zero-join-tensor"}


def observed_layout(
    tensor: TensorLike, partition: Partition, which: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(values, observed)``, each shaped ``(pivot cells, free cells)``.

    ``which`` numbers the sub-systems from 1, in
    ``partition.sub_shapes`` order.  Unobserved cells hold ``0.0``; a
    dense input is observed everywhere.
    :func:`~repro.core.m2td.m2td_decompose` builds one per sub-ensemble
    and feeds it to the factors and to
    :func:`~repro.core.join_tensor.join_core`.
    """
    if not 1 <= which <= len(partition.sub_shapes):
        raise PartitionError(
            f"sub-system must be 1..{len(partition.sub_shapes)}, got {which}"
        )
    expected = partition.sub_shapes[which - 1]
    sparse = isinstance(tensor, SparseTensor)
    if not sparse:
        tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.shape != expected:
        raise StitchError(
            f"sub-ensemble {which} has shape {tensor.shape}, partition "
            f"expects {expected}"
        )
    k = partition.k
    layout = (int(np.prod(expected[:k])), int(np.prod(expected[k:])))
    if not sparse:
        return tensor.reshape(layout), np.ones(layout, dtype=bool)
    flat = np.ravel_multi_index(tuple(tensor.coords.T), expected)
    values = np.zeros(tensor.size)
    observed = np.zeros(tensor.size, dtype=bool)
    values[flat] = tensor.values
    observed[flat] = True
    return values.reshape(layout), observed.reshape(layout)


def spread(array: np.ndarray, side: int, m: int) -> np.ndarray:
    """View a ``(pivot, cells)`` array with its cells on axis
    ``1 + side`` of ``(pivot, a_1, ..., a_m)``, for broadcasting."""
    return array.reshape(
        array.shape[:1] + (1,) * side + array.shape[1:]
        + (1,) * (m - 1 - side)
    )


def dense_join(
    layouts: Sequence[Tuple[np.ndarray, np.ndarray]],
    partition: Partition,
    kind: str,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Stitch ``m`` sub-ensembles into the dense join tensor.

    Parameters
    ----------
    layouts:
        Each sub-ensemble's :func:`observed_layout`, in
        ``partition.sub_shapes`` order.
    partition:
        The partition relating them to the full space.
    kind:
        ``"join"`` (Section V-C1) or ``"zero"`` (Section V-C2, two
        sub-ensembles only).

    Returns
    -------
    (dense, stored, nnz)
        The join tensor in join mode order with ``0.0`` in every
        unstored cell, the boolean mask of its stored cells, and the
        stored-cell count.
    """
    if kind not in _SPAN_NAMES:
        raise StitchError(f"unknown join kind {kind!r}")
    m = len(layouts)
    if m != len(partition.sub_shapes):
        raise StitchError(
            f"need {len(partition.sub_shapes)} sub-ensembles, got {m}"
        )
    if kind == "zero" and m > 2:
        raise StitchError(f"zero-join stitches two sub-ensembles, got {m}")
    with _span(
        _SPAN_NAMES[kind], "stitch", join_shape=partition.join_shape
    ) as sp:
        sp.set(**{
            f"nnz{which}": int(np.count_nonzero(observed))
            for which, (_values, observed) in enumerate(layouts, 1)
        })

        values = [
            spread(v, side, m) for side, (v, _o) in enumerate(layouts)
        ]
        masks = [
            spread(o, side, m) for side, (_v, o) in enumerate(layouts)
        ]
        dense = functools.reduce(np.add, values)
        dense /= m
        if kind == "join":
            stored = functools.reduce(np.logical_and, masks)
        else:
            (m1, m2), (_v1, v2) = masks, values
            cand1 = m1.any(axis=0, keepdims=True)
            cand2 = m2.any(axis=0, keepdims=True)
            stored = (m1 & cand2) | (m2 & cand1)
            # A one-sided X2 cell is x2 / 2, not (0.0 + x2) / 2: the
            # two differ when x2 is -0.0.
            np.copyto(dense, 0.5 * v2, where=~m1)
        dense[~stored] = 0.0
        dense = dense.reshape(partition.join_shape)
        stored = stored.reshape(partition.join_shape)
        nnz = int(np.count_nonzero(stored))
        sp.set(join_nnz=nnz)
        metrics = get_metrics()
        metrics.counter("stitch.joins").inc()
        metrics.counter("stitch.join_nnz").inc(nnz)
        return dense, stored, nnz


def _sparse_view(
    x1: TensorLike, x2: TensorLike, partition: PFPartition, kind: str
) -> SparseTensor:
    layouts = [observed_layout(x, partition, w) for w, x in ((1, x1), (2, x2))]
    dense, stored, _nnz = dense_join(layouts, partition, kind)
    return SparseTensor(
        partition.join_shape, np.argwhere(stored), dense[stored]
    )


def join_tensor(
    x1: TensorLike, x2: TensorLike, partition: PFPartition
) -> SparseTensor:
    """Join-based stitching (Section V-C1) as a sparse tensor.

    Returns the join tensor in *join mode order* (pivots, S1 free,
    S2 free); use :func:`to_original_order` to permute it back to the
    system's native mode order.
    """
    return _sparse_view(x1, x2, partition, "join")


def zero_join_tensor(
    x1: TensorLike, x2: TensorLike, partition: PFPartition
) -> SparseTensor:
    """Zero-join stitching (Section V-C2) as a sparse tensor.

    For a pivot configuration ``p``: matched pairs average as in the
    plain join; an ``X1`` observation with no matching ``X2`` cell
    contributes ``x1 / 2`` at every candidate ``b`` (a free
    configuration ``X2`` observed at any pivot); symmetrically for
    ``X2``.
    """
    return _sparse_view(x1, x2, partition, "zero")


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
