"""Gram-matrix Tucker kernels: factor subspaces without densification.

For a mode-``k`` matricization :math:`X_{(k)}` the left singular
vectors are the eigenvectors of the Gram matrix
:math:`G_k = X_{(k)} X_{(k)}^T` — an ``(I_k, I_k)`` matrix that can be
accumulated directly from sparse coordinates.  For the very sparse,
very wide matricizations ensemble tensors produce, this sidesteps both
the dense unfolding (``I_k`` × ``prod(other modes)``) and the unused
right-singular-vector work of a full SVD.

The contract these kernels are tested against: on a
:class:`~repro.tensor.sparse.SparseTensor` input the
``tensor.dense_unfolds`` counter stays at **zero** — no dense unfolding
of the input is ever materialized.  The projected tensor the core
recovery passes through (already truncated to rank ``r_0`` on mode 0)
is dense; the guard is about the full-size input, which is the part
that does not fit at scale.

:func:`repro.tensor.tucker.hosvd` routes every sparse input here.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from ..observability import span as _span
from .sparse import SparseTensor
from .svd import gram_left_singular_vectors
from .ttm import multi_ttm
from .tucker import TuckerTensor, validate_ranks
from .unfold import check_mode, fold, unfold

TensorLike = Union[np.ndarray, SparseTensor]


def mode_gram(tensor: TensorLike, mode: int) -> np.ndarray:
    """The mode-``mode`` Gram matrix ``G = X_(mode) X_(mode)^T``.

    Sparse inputs accumulate the product in CSR without ever forming
    the dense unfolding; dense inputs use the ordinary matricization.
    The result is always a small dense ``(I_mode, I_mode)`` symmetric
    matrix.
    """
    if isinstance(tensor, SparseTensor):
        mode = check_mode(tensor.ndim, mode)
        csr = tensor.unfold_csr(mode)
        return np.asarray((csr @ csr.T).todense(), dtype=np.float64)
    matrix = unfold(np.asarray(tensor, dtype=np.float64), mode)
    return matrix @ matrix.T


def sparse_ttm(tensor: SparseTensor, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` product of a sparse tensor with a dense matrix.

    Contracts the CSR matricization directly (``matrix @ X_(mode)``)
    and folds the dense result — the sparse input itself is never
    densified.  The output is dense by construction: one contracted
    mode is enough to fill in the null cells.
    """
    mode = check_mode(tensor.ndim, mode)
    matrix = np.asarray(matrix, dtype=np.float64)
    result_shape = list(tensor.shape)
    result_shape[mode] = matrix.shape[0]
    with _span("sparse-ttm", "tensor-op", shape=tensor.shape, mode=mode,
               rows=matrix.shape[0]):
        product = np.asarray(matrix @ tensor.unfold_csr(mode))
        return fold(product, mode, tuple(result_shape))


def sparse_project(
    tensor: SparseTensor, factors: Sequence[np.ndarray]
) -> np.ndarray:
    """Core recovery ``X ×_1 U1^T ×_2 ... ×_N UN^T`` from sparse coords.

    The first contraction runs sparse (:func:`sparse_ttm`); its output
    is already rank-truncated on mode 0 and small, so the remaining
    modes use the ordinary dense product chain.
    """
    dense = sparse_ttm(tensor, np.asarray(factors[0]).T, 0)
    return multi_ttm(dense, list(factors), transpose=True, skip=[0])


def gram_hosvd(tensor: TensorLike, ranks: Sequence[int]) -> TuckerTensor:
    """HOSVD with every factor taken from a mode Gram matrix.

    Identical subspaces to the dense route of
    :func:`repro.tensor.tucker.hosvd` up to the usual
    ``eps * kappa^2`` eigenvector perturbation; the tests pin the
    reconstructions of the two routes together.
    """
    shape = tensor.shape
    ranks = validate_ranks(shape, ranks)
    is_sparse = isinstance(tensor, SparseTensor)
    if is_sparse:
        tensor.compile()
    with _span("gram-hosvd", "decompose", shape=shape, ranks=ranks,
               sparse=is_sparse):
        factors = [
            gram_left_singular_vectors(mode_gram(tensor, mode), rank)
            for mode, rank in enumerate(ranks)
        ]
        if is_sparse:
            core = sparse_project(tensor, factors)
        else:
            core = multi_ttm(
                np.asarray(tensor, dtype=np.float64), factors, transpose=True
            )
        return TuckerTensor(core, factors)
