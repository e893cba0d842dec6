"""Deterministic truncated SVD of a matricization.

Every factor matrix in this library (HOSVD, HOOI, all three M2TD
variants) comes out of :func:`truncated_svds` (or its batch of one,
:func:`truncated_svd`) or :func:`leading_left_singular_vectors`
applied to a dense matricization, so the sign convention and the one
dispatch (LAPACK's SVD, or the eigenvectors of the Gram matrix of a
wide dense unfolding) live in exactly one place.  Sparse tensors are
densified before they get here; a CSR matrix passed in is densified
too.

Determinism matters more here than in a generic linear-algebra
library: M2TD-AVG *averages* factor matrices from two independent
decompositions and ROW_SELECT compares their rows, so a random sign
flip between the two would silently corrupt the stitched factors.
We therefore normalize each singular vector so that its entry of
largest magnitude is positive.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sps

from ..exceptions import RankError
from ..observability import get_metrics, span as _span

MatrixLike = Union[np.ndarray, sps.spmatrix]


def sign_flip_mask(basis: np.ndarray) -> np.ndarray:
    """Boolean mask of columns whose largest-|entry| is negative.

    ``basis`` is one ``(m, r)`` matrix or a stack ``(b, m, r)`` of
    them; the mask is ``(r,)`` or ``(b, r)``, each matrix on its own.
    """
    mask_shape = basis.shape[:-2] + basis.shape[-1:]
    if basis.size == 0:
        return np.zeros(mask_shape, dtype=bool)
    stack = basis.reshape((-1,) + basis.shape[-2:])
    pivot_rows = np.abs(stack).argmax(axis=1)
    pivots = stack[
        np.arange(stack.shape[0])[:, None],
        pivot_rows,
        np.arange(stack.shape[2]),
    ]
    return (pivots < 0).reshape(mask_shape)


def deterministic_signs(basis: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-|entry| of each column is positive.

    Columns that are entirely zero are left untouched.
    """
    basis = np.array(basis, dtype=np.float64, copy=True)
    flip = sign_flip_mask(basis)
    basis[:, flip] *= -1.0
    return basis


def _validate_rank(matrix_shape: Tuple[int, int], rank: int) -> int:
    rank = int(rank)
    if rank < 1:
        raise RankError(f"rank must be >= 1, got {rank}")
    max_rank = min(matrix_shape)
    if rank > max_rank:
        raise RankError(
            f"rank {rank} exceeds max rank {max_rank} of a "
            f"{matrix_shape[0]}x{matrix_shape[1]} matrix"
        )
    return rank


def truncated_svd(
    matrix: MatrixLike, rank: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-``rank`` truncated SVD with deterministic signs.

    Returns ``(U, s, Vt)`` with ``U`` of shape ``(m, rank)``, singular
    values sorted in decreasing order, and signs normalized jointly on
    ``U``/``Vt`` so that ``U @ diag(s) @ Vt`` still reconstructs the
    input.  The batch of one of :func:`truncated_svds`: LAPACK's full
    SVD, a sparse (CSR) input densified first.
    """
    return truncated_svds([matrix], [rank])[0]


def truncated_svds(
    matrices: Sequence[MatrixLike], ranks: Sequence[int]
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`truncated_svd` of every matrix, one LAPACK call per shape.

    ``ranks[i]`` is the rank of ``matrices[i]``'s result; the results
    come back in input order.  Matrices of one shape are stacked and
    factored by one call of numpy's SVD gufunc, which runs the same
    LAPACK routine on each matrix of a stack, so every ``(U, s, Vt)``
    is bit-identical to factoring its matrix alone.  ``svd.calls`` and
    ``svd.rank`` count matrices; each stacked call is one
    ``truncated-svd`` span whose ``batch`` is its matrix count.
    """
    if len(matrices) != len(ranks):
        raise RankError(
            f"need one rank per matrix ({len(matrices)}), got {len(ranks)}"
        )
    ranks = [_validate_rank(m.shape, r) for m, r in zip(matrices, ranks)]
    metrics = get_metrics()
    metrics.counter("svd.calls").inc(len(matrices))
    metrics.histogram("svd.rank").observe_many(ranks)
    groups: Dict[Tuple[Tuple[int, ...], bool], List[int]] = {}
    for i, matrix in enumerate(matrices):
        key = (tuple(matrix.shape), sps.issparse(matrix))
        groups.setdefault(key, []).append(i)
    results: List = [None] * len(matrices)
    for (shape, is_sparse), members in groups.items():
        group_ranks = [ranks[i] for i in members]
        with _span(
            "truncated-svd",
            "decompose",
            shape=shape,
            ranks=tuple(group_ranks),
            sparse=is_sparse,
            batch=len(members),
        ):
            if is_sparse:
                # metered like SparseTensor.to_dense: a densification
                metrics.counter("tensor.dense_unfolds").inc(len(members))
                stack = np.stack([matrices[i].toarray() for i in members])
            else:
                stack = np.stack([matrices[i] for i in members])
            u, s, vt = np.linalg.svd(
                stack.astype(np.float64, copy=False), full_matrices=False
            )
            top = max(group_ranks)
            u, s, vt = u[:, :, :top], s[:, :top], vt[:, :top]
            sign = np.where(sign_flip_mask(u), -1.0, 1.0)
            u = u * sign[:, None, :]
            vt = vt * sign[:, :, None]
            for j, (i, rank) in enumerate(zip(members, group_ranks)):
                results[i] = (
                    np.ascontiguousarray(u[j, :, :rank]),
                    s[j, :rank],
                    vt[j, :rank],
                )
    return results


#: Width ratio past which the Gram route beats a full LAPACK SVD: for
#: an (m, n) matricization with n >> m, eigendecomposing the (m, m)
#: Gram matrix skips the O(m·n) right-singular-vector computation the
#: caller throws away.
GRAM_ASPECT = 4


def gram_left_singular_vectors(gram: np.ndarray, rank: int) -> np.ndarray:
    """Leading left singular vectors from a Gram matrix ``X X^T``.

    The left singular vectors of ``X`` are the eigenvectors of its
    Gram matrix ordered by decreasing eigenvalue; signs are normalized
    with the same largest-|entry|-positive convention as
    :func:`truncated_svd`, so the two routes agree up to the usual
    ``eps * kappa^2`` eigenvector perturbation.
    """
    gram = np.asarray(gram, dtype=np.float64)
    rank = _validate_rank(gram.shape, rank)
    _w, vectors = np.linalg.eigh(gram)
    # eigh orders ascending; the leading singular vectors are the last
    # ``rank`` columns, reversed.
    return deterministic_signs(vectors[:, : -rank - 1 : -1])


def leading_left_singular_vectors(matrix: MatrixLike, rank: int) -> np.ndarray:
    """The ``rank`` leading left singular vectors, deterministic signs.

    This is the exact primitive the paper's pseudocode calls
    ``r_n leading left singular vectors of X_(n)``.  Dense wide
    matricizations (``n >= GRAM_ASPECT * m``) take the Gram route —
    same subspace, none of the right-singular-vector work — which is
    what roughly halves the HOSVD/ST-HOSVD kernels; square-ish
    matricizations and CSR inputs (densified) take LAPACK's SVD.
    """
    rank = _validate_rank(matrix.shape, rank)
    m, n = matrix.shape
    if not sps.issparse(matrix) and n >= GRAM_ASPECT * m:
        metrics = get_metrics()
        metrics.counter("svd.calls").inc()
        metrics.counter("svd.gram_fastpath").inc()
        metrics.histogram("svd.rank").observe(rank)
        with _span("gram-svd", "decompose", shape=matrix.shape, rank=rank):
            dense = np.asarray(matrix, dtype=np.float64)
            return gram_left_singular_vectors(dense @ dense.T, rank)
    u, _s, _vt = truncated_svd(matrix, rank)
    return u
