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

:func:`dense_join` is the one stitch.  It takes each sub-ensemble's
:func:`observed_layout` (a ``(pivot cells, free cells)`` value array
plus a boolean observed mask ``m``), then forms both kinds by
broadcasting over ``(pivot, a, b)``:

* join: ``stored = m1 & m2``;
* zero-join: ``stored = (m1 & cand2) | (m2 & cand1)`` with
  ``cand = m.any(axis=0)``;
* values: ``(x1 + x2) / 2`` where ``X1`` observed ``(p, a)`` (a missing
  ``x2`` is ``0.0``), ``x2 / 2`` where only ``X2`` did, ``0.0`` where
  nothing is stored.

A dense layout holds one value per cell, so the stitch cannot emit
duplicate cells; duplicate input coordinates are already averaged by
:class:`~repro.tensor.sparse.SparseTensor`.  :func:`join_tensor` and
:func:`zero_join_tensor` are sparse views of the same stitch.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..exceptions import StitchError
from ..observability import get_metrics, span as _span
from ..sampling.partition import PFPartition
from ..tensor.sparse import SparseTensor

TensorLike = Union[np.ndarray, SparseTensor]

_SPAN_NAMES = {"join": "join-tensor", "zero": "zero-join-tensor"}


def observed_layout(
    tensor: TensorLike, partition: PFPartition, which: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(values, observed)``, each shaped ``(pivot cells, free cells)``.

    Unobserved cells hold ``0.0``; a dense input is observed everywhere.
    :func:`~repro.core.m2td.m2td_decompose` builds one per sub-ensemble
    and feeds it to the factors, the stitch and the closed-form core.
    """
    expected = partition.sub_shape(which)
    sparse = isinstance(tensor, SparseTensor)
    if not sparse:
        tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.shape != expected:
        raise StitchError(
            f"sub-ensemble {which} has shape {tensor.shape}, partition "
            f"expects {expected}"
        )
    layout = (partition.pivot_space_size, partition.free_space_size(which))
    if not sparse:
        return tensor.reshape(layout), np.ones(layout, dtype=bool)
    flat = np.ravel_multi_index(tuple(tensor.coords.T), expected)
    values = np.zeros(tensor.size)
    observed = np.zeros(tensor.size, dtype=bool)
    values[flat] = tensor.values
    observed[flat] = True
    return values.reshape(layout), observed.reshape(layout)


def dense_join(
    layout1: Tuple[np.ndarray, np.ndarray],
    layout2: Tuple[np.ndarray, np.ndarray],
    partition: PFPartition,
    kind: str,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Stitch two sub-ensembles into the dense join tensor.

    Parameters
    ----------
    layout1, layout2:
        Each sub-ensemble's :func:`observed_layout`.
    partition:
        The PF-partition relating them to the full space.
    kind:
        ``"join"`` (Section V-C1) or ``"zero"`` (Section V-C2).

    Returns
    -------
    (dense, stored, nnz)
        The join tensor in join mode order with ``0.0`` in every
        unstored cell, the boolean mask of its stored cells, and the
        stored-cell count.
    """
    if kind not in _SPAN_NAMES:
        raise StitchError(f"unknown join kind {kind!r}")
    with _span(
        _SPAN_NAMES[kind], "stitch", join_shape=partition.join_shape
    ) as sp:
        (v1, m1), (v2, m2) = layout1, layout2
        sp.set(
            nnz1=int(np.count_nonzero(m1)), nnz2=int(np.count_nonzero(m2))
        )
        # broadcast over (pivot, a, b)
        m1, v1 = m1[:, :, None], v1[:, :, None]
        m2, v2 = m2[:, None, :], v2[:, None, :]
        dense = v1 + v2
        dense *= 0.5
        if kind == "join":
            stored = m1 & m2
        else:
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
    dense, stored, _nnz = dense_join(*layouts, partition, kind)
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
