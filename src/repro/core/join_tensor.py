"""Core recovery against the join tensor, without building it.

The costliest step of every M2TD variant (the paper's Phase 3) is

    G = J x_1 U^(1)T x_2 U^(2)T ... x_N U^(N)T.

Every JE-stitch has a closed form per pivot configuration ``p``.  With
``x_i`` a sub-ensemble's values (``0.0`` where unobserved), ``m_i`` its
observed mask and ``cand_i = m_i.any(axis=0)`` its candidate free
configurations (:mod:`~repro.core.stitch`):

* join of ``m`` sub-ensembles:
  ``J(p, a_1..a_m) = (1/m) sum_i x_i(p, a_i) prod_{j != i} m_j(p, a_j)``;
* zero-join: ``J(p, a, b) = (x_1(p, a) cand_2(b) + cand_1(a) x_2(p, b)) / 2``.

Each term is an outer product over the free modes, taken per pivot, so
the projection distributes: with ``B_i`` the Kronecker product of side
``i``'s free factors and ``U_p`` that of the pivot factors (both in C
order, matching the layouts' flattening),

    G = U_p^T [ (1/m) sum_i (x_i B_i) ⊗_p prod_{j != i} (m_j B_j) ]

where ``⊗_p`` is an outer product per pivot row (the zero-join uses
``cand_j B_j`` for every pivot).  :func:`join_core` computes exactly
that — ``O(sum_i |x_i| R_i)`` work, never ``O(|J|)`` — and counts the
join's stored cells from the per-pivot observed counts.  It is the
partial multi-TTM of TuckerMPI and Austin/Ballard/Kolda: each block is
projected with the sequential kernels and only the small partials are
reduced.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence, Tuple

import numpy as np

from ..exceptions import StitchError
from ..sampling.partition import PFPartition
from .stitch import Partition, spread


def _kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    """The C-order Kronecker basis of a mode group's factors: the
    products ``np.kron`` forms, without its per-call overhead."""
    basis = factors[0]
    for u in factors[1:]:
        basis = (basis[:, None, :, None] * u[None, :, None, :]).reshape(
            len(basis) * len(u), -1
        )
    return basis


def join_core(
    layouts: Sequence[Tuple[np.ndarray, np.ndarray]],
    factors: Sequence[np.ndarray],
    partition: Partition,
    join_kind: str,
) -> Tuple[np.ndarray, int]:
    """``(core, join_nnz)`` of the stitched join, never materializing it.

    Parameters
    ----------
    layouts:
        Each sub-ensemble's :func:`~repro.core.stitch.observed_layout`,
        in ``partition.sub_shapes`` order.
    factors:
        Join-order factor matrices (pivots, then each group's modes).
    partition:
        The :class:`~repro.sampling.partition.PFPartition` or
        :class:`~repro.core.multiway.MWPartition` (supplies the mode
        split).
    join_kind:
        ``"join"`` (any ``m``) or ``"zero"`` (two sub-ensembles).

    Returns
    -------
    (core, join_nnz)
        The core ``J x_n U^(n)T`` over every mode, equal (to floating
        point) to projecting :func:`~repro.core.stitch.dense_join`'s
        tensor, and that tensor's stored-cell count.
    """
    if join_kind not in ("join", "zero"):
        raise StitchError(f"unknown join kind {join_kind!r}")
    m = len(layouts)
    shapes = partition.sub_shapes
    if m != len(shapes):
        raise StitchError(f"need {len(shapes)} sub-ensembles, got {m}")
    if join_kind == "zero" and m > 2:
        raise StitchError(f"zero-join stitches two sub-ensembles, got {m}")
    if len(factors) != partition.n_modes:
        raise StitchError(
            f"need {partition.n_modes} factor matrices, got {len(factors)}"
        )
    k = partition.k
    projected, weights, counts, candidates = [], [], [], []
    start = k
    for which, ((values, observed), shape) in enumerate(
        zip(layouts, shapes), 1
    ):
        cells = (math.prod(shape[:k]), math.prod(shape[k:]))
        if values.shape != cells or observed.shape != cells:
            raise StitchError(
                f"x{which} layout {values.shape} != (pivot, free) {cells}"
            )
        basis = _kron(factors[start : start + len(shape) - k])
        start += len(shape) - k
        projected.append(values @ basis)
        counts.append(observed.sum(axis=1))
        if join_kind == "join":
            weights.append(observed @ basis)
        else:
            cand = observed.any(axis=0)
            candidates.append(np.count_nonzero(cand))
            weights.append((cand @ basis)[None, :])
    # per pivot: side i's projected values times every other side's
    # projected mask, each on its own rank axis of (pivot, r_1..r_m)
    terms = [
        functools.reduce(np.multiply, [
            spread(projected[j] if j == side else weights[j], j, m)
            for j in range(m)
        ])
        for side in range(m)
    ]
    stitched = functools.reduce(np.add, terms) / m
    pivot_basis = _kron(factors[:k])
    core = pivot_basis.T @ stitched.reshape(len(pivot_basis), -1)
    core = core.reshape(tuple(u.shape[1] for u in factors))

    if join_kind == "join":
        join_nnz = functools.reduce(np.multiply, counts).sum()
    else:
        (c1, c2), (a1, a2) = counts, candidates
        join_nnz = (c1 * a2 + a1 * c2 - c1 * c2).sum()
    return core, int(join_nnz)


def dense_join_from_subs(
    x1_dense: np.ndarray, x2_dense: np.ndarray, partition: PFPartition
) -> np.ndarray:
    """Materialize the complete cross join densely (join mode order).

    ``J(p, a, b) = (X1(p, a) + X2(p, b)) / 2`` — a reference the tests
    check the core against.
    """
    k = partition.k
    f1 = len(partition.s1_free)
    f2 = len(partition.s2_free)
    pivot_shape = x1_dense.shape[:k]
    a_shape = x1_dense.shape[k:]
    b_shape = x2_dense.shape[k:]
    if x2_dense.shape[:k] != pivot_shape:
        raise StitchError("sub-ensembles disagree on pivot mode sizes")
    x1_expanded = x1_dense.reshape(pivot_shape + a_shape + (1,) * f2)
    x2_expanded = x2_dense.reshape(pivot_shape + (1,) * f1 + b_shape)
    return 0.5 * (x1_expanded + x2_expanded)
