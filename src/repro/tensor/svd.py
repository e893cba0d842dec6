"""Deterministic truncated SVD of a matricization.

Every factor matrix in this library (HOSVD, HOOI, all three M2TD
variants) comes out of :func:`truncated_svd` or
:func:`leading_left_singular_vectors` applied to a dense matricization,
so the sign convention and the one dispatch (LAPACK's SVD, or the
eigenvectors of the Gram matrix of a wide dense unfolding) live in
exactly one place.  Sparse tensors are densified before they get here;
a CSR matrix passed in is densified too.

Determinism matters more here than in a generic linear-algebra
library: M2TD-AVG *averages* factor matrices from two independent
decompositions and ROW_SELECT compares their rows, so a random sign
flip between the two would silently corrupt the stitched factors.
We therefore normalize each singular vector so that its entry of
largest magnitude is positive.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np
import scipy.sparse as sps

from ..exceptions import RankError
from ..observability import get_metrics, span as _span

MatrixLike = Union[np.ndarray, sps.spmatrix]


def sign_flip_mask(basis: np.ndarray) -> np.ndarray:
    """Boolean mask of columns whose largest-|entry| is negative."""
    if basis.size == 0:
        return np.zeros(basis.shape[1], dtype=bool)
    pivot_rows = np.abs(basis).argmax(axis=0)
    pivots = basis[pivot_rows, np.arange(basis.shape[1])]
    return pivots < 0


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
    input.  Every input takes LAPACK's full SVD; a sparse (CSR) input
    is densified first.
    """
    rank = _validate_rank(matrix.shape, rank)
    is_sparse = sps.issparse(matrix)
    metrics = get_metrics()
    metrics.counter("svd.calls").inc()
    metrics.histogram("svd.rank").observe(rank)
    with _span(
        "truncated-svd",
        "decompose",
        shape=matrix.shape,
        rank=rank,
        sparse=bool(is_sparse),
    ):
        if is_sparse:
            # metered like SparseTensor.to_dense: a densification
            metrics.counter("tensor.dense_unfolds").inc()
            dense = matrix.toarray()
        else:
            dense = np.asarray(matrix, dtype=np.float64)
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        u, s, vt = u[:, :rank], s[:rank], vt[:rank]
        u = np.array(u, dtype=np.float64, copy=True)
        vt = np.array(vt, dtype=np.float64, copy=True)
        flip = sign_flip_mask(u)
        u[:, flip] *= -1.0
        vt[flip, :] *= -1.0
        return u, s, vt


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
