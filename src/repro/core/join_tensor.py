"""Core recovery against the join tensor.

The costliest step of every M2TD variant (the paper's Phase 3) is

    G = J x_1 U^(1)T x_2 U^(2)T ... x_N U^(N)T.

:func:`~repro.core.m2td.m2td_decompose` picks one of two routes from
its inputs:

* :func:`materialized_core` — paper-faithful: build the (dense) join
  tensor and run the multilinear product; every zero-join and every
  join of partially observed sub-ensembles takes it;
* :func:`lazy_core` — the closed form: when all ``m`` sub-ensembles
  are *complete* over their sub-spaces the join tensor is
  ``J(p, a_1, ..., a_m) = (1/m) sum_i X_i(p, a_i)``, and the
  projection distributes:

      G = (1/m) sum_i (X_i proj) ⊗ colsum(U of every other group)

  so the core is recoverable without ever materialising ``J`` —
  ``O(sum_i |X_i|)`` data touched instead of ``O(|J|)``.  For the
  paper's two sub-systems that is
  ``G = 1/2 [ (X1 proj) ⊗ colsum(U_b...) + (X2 proj) ⊗ colsum(U_a...) ]``.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from ..exceptions import StitchError
from ..sampling.partition import PFPartition
from ..tensor.ops import outer
from ..tensor.ttm import multi_ttm
from .stitch import Partition


def materialized_core(
    join_dense: np.ndarray, factors: Sequence[np.ndarray]
) -> np.ndarray:
    """Project a (dense) join tensor onto the factor subspaces."""
    return multi_ttm(join_dense, list(factors), transpose=True)


def lazy_core(
    subs: Sequence[np.ndarray],
    factors: Sequence[np.ndarray],
    partition: Partition,
) -> np.ndarray:
    """Closed-form core recovery for complete sub-ensembles.

    Parameters
    ----------
    subs:
        Dense sub-ensemble tensors in sub-space mode order (pivots
        first), one per ``partition.sub_shapes`` entry.  Every cell
        must be an actual observation — the closed form is exact only
        for full cross-product sub-ensembles.
    factors:
        Join-order factor matrices (pivots, then each group's modes).
    partition:
        The :class:`~repro.sampling.partition.PFPartition` or
        :class:`~repro.core.multiway.MWPartition` (supplies the mode
        split).

    Returns
    -------
    numpy.ndarray
        The core tensor, identical (to floating point) to
        ``materialized_core(join, factors)``.
    """
    k = partition.k
    shapes = partition.sub_shapes
    if len(subs) != len(shapes):
        raise StitchError(
            f"need {len(shapes)} sub-ensembles, got {len(subs)}"
        )
    if len(factors) != partition.n_modes:
        raise StitchError(
            f"need {partition.n_modes} factor matrices, got {len(factors)}"
        )
    group_factors = []
    start = k
    for which, (sub, expected) in enumerate(zip(subs, shapes), 1):
        if sub.shape != expected:
            raise StitchError(
                f"x{which} shape {sub.shape} != sub-space {expected}"
            )
        group_factors.append(list(factors[start : start + sub.ndim - k]))
        start += sub.ndim - k
    pivot_factors = list(factors[:k])
    colsums = [[u.sum(axis=0) for u in fs] for fs in group_factors]
    terms = []
    for side, (sub, own) in enumerate(zip(subs, group_factors)):
        # Project each sub-ensemble onto its own modes' subspaces; the
        # column sums of the other groups' factors supply their modes.
        projected = multi_ttm(sub, pivot_factors + own, transpose=True)
        others = [c for g, cs in enumerate(colsums) if g != side for c in cs]
        term = np.multiply.outer(projected, outer(others))
        # term's layout is (pivot..., own group..., other groups...);
        # move each group's block to its join-order position.
        axes = list(range(k))
        after_own = k + len(own)
        for g, cs in enumerate(colsums):
            if g == side:
                axes.extend(range(k, k + len(cs)))
            else:
                axes.extend(range(after_own, after_own + len(cs)))
                after_own += len(cs)
        terms.append(np.transpose(term, axes))
    return functools.reduce(np.add, terms) / len(terms)


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
