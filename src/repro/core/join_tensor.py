"""Core recovery against the join tensor.

The costliest step of every M2TD variant (the paper's Phase 3) is

    G = J x_1 U^(1)T x_2 U^(2)T ... x_N U^(N)T.

:func:`~repro.core.m2td.m2td_decompose` picks one of two routes from
its inputs:

* :func:`materialized_core` — paper-faithful: build the (dense) join
  tensor and run the multilinear product; every zero-join and every
  join of partially observed sub-ensembles takes it;
* :func:`lazy_core` — the closed form: when both sub-ensembles are
  *complete* over their sub-spaces the join tensor is
  ``J(p, a, b) = (X1(p, a) + X2(p, b)) / 2``, and the projection
  distributes:

      G = 1/2 [ (X1 proj) ⊗ colsum(U_b...) + (X2 proj) ⊗ colsum(U_a...) ]

  so the core is recoverable without ever materialising ``J`` —
  ``O(|X1| + |X2|)`` data touched instead of ``O(|X1| * E2)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import StitchError
from ..sampling.partition import PFPartition
from ..tensor.ops import outer
from ..tensor.ttm import multi_ttm


def materialized_core(
    join_dense: np.ndarray, factors: Sequence[np.ndarray]
) -> np.ndarray:
    """Project a (dense) join tensor onto the factor subspaces."""
    return multi_ttm(join_dense, list(factors), transpose=True)


def lazy_core(
    x1_dense: np.ndarray,
    x2_dense: np.ndarray,
    factors: Sequence[np.ndarray],
    partition: PFPartition,
) -> np.ndarray:
    """Closed-form core recovery for complete sub-ensembles.

    Parameters
    ----------
    x1_dense / x2_dense:
        Dense sub-ensemble tensors in sub-space mode order (pivots
        first).  Every cell must be an actual observation — the closed
        form is exact only for full cross-product sub-ensembles.
    factors:
        Join-order factor matrices ``(U_pivot..., U_s1free..., U_s2free...)``.
    partition:
        The PF-partition (supplies the mode split).

    Returns
    -------
    numpy.ndarray
        The core tensor, identical (to floating point) to
        ``materialized_core(join, factors)``.
    """
    k = partition.k
    f1 = len(partition.s1_free)
    f2 = len(partition.s2_free)
    if len(factors) != k + f1 + f2:
        raise StitchError(
            f"need {k + f1 + f2} factor matrices, got {len(factors)}"
        )
    if x1_dense.shape != partition.sub_shape(1):
        raise StitchError(
            f"x1 shape {x1_dense.shape} != sub-space {partition.sub_shape(1)}"
        )
    if x2_dense.shape != partition.sub_shape(2):
        raise StitchError(
            f"x2 shape {x2_dense.shape} != sub-space {partition.sub_shape(2)}"
        )
    pivot_factors = list(factors[:k])
    s1_factors = list(factors[k : k + f1])
    s2_factors = list(factors[k + f1 :])
    # Project each sub-ensemble onto its own modes' subspaces.
    c1 = multi_ttm(x1_dense, pivot_factors + s1_factors, transpose=True)
    c2 = multi_ttm(x2_dense, pivot_factors + s2_factors, transpose=True)
    # Column sums of the *other* side's factors supply the missing modes.
    colsum1 = [u.sum(axis=0) for u in s1_factors]
    colsum2 = [u.sum(axis=0) for u in s2_factors]
    term1 = np.multiply.outer(
        c1, outer(colsum2) if len(colsum2) > 1 else colsum2[0]
    )
    term2_raw = np.multiply.outer(
        c2, outer(colsum1) if len(colsum1) > 1 else colsum1[0]
    )
    # term2's layout is (pivot..., s2..., s1...); move the s1 block in
    # front of the s2 block to match join order (pivot..., s1..., s2...).
    axes = (
        list(range(k))
        + list(range(k + f2, k + f2 + f1))
        + list(range(k, k + f2))
    )
    term2 = np.transpose(term2_raw, axes)
    return 0.5 * (term1 + term2)


def dense_join_from_subs(
    x1_dense: np.ndarray, x2_dense: np.ndarray, partition: PFPartition
) -> np.ndarray:
    """Materialize the complete cross join densely (join mode order).

    ``J(p, a, b) = (X1(p, a) + X2(p, b)) / 2`` — the reference the
    tests check both core routes against.
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
