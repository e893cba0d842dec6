"""Tensor-times-matrix (n-mode) products.

The n-mode product :math:`\\mathcal{X} \\times_n U` multiplies every
mode-``n`` fiber of :math:`\\mathcal{X}` by the matrix ``U``; it is the
workhorse of Tucker reconstruction and of core recovery
(:math:`G = \\mathcal{J} \\times_1 U^{(1)T} \\cdots \\times_N U^{(N)T}`,
Algorithms 2–4 of the paper).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..exceptions import ShapeError
from ..observability import span as _span
from .unfold import check_mode, fold, unfold


def ttm(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` product of a dense tensor with a matrix.

    Parameters
    ----------
    tensor:
        Dense array of shape ``(I_1, ..., I_N)``.
    matrix:
        Matrix of shape ``(J, I_mode)``.
    mode:
        The mode to contract.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(I_1, ..., J, ..., I_N)``.
    """
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    mode = check_mode(tensor.ndim, mode)
    if matrix.ndim != 2:
        raise ShapeError(f"ttm expects a matrix, got ndim={matrix.ndim}")
    if matrix.shape[1] != tensor.shape[mode]:
        raise ShapeError(
            f"matrix has {matrix.shape[1]} columns but mode {mode} has "
            f"size {tensor.shape[mode]}"
        )
    result_shape = list(tensor.shape)
    result_shape[mode] = matrix.shape[0]
    with _span("ttm", "tensor-op", shape=tensor.shape, mode=mode,
               rows=matrix.shape[0]):
        product = matrix @ unfold(tensor, mode)
        return fold(product, mode, tuple(result_shape))


def multi_ttm(
    tensor: np.ndarray,
    matrices: Sequence[Optional[np.ndarray]],
    transpose: bool = False,
    skip: Optional[Iterable[int]] = None,
) -> np.ndarray:
    """Apply a sequence of n-mode products, one matrix per mode.

    Parameters
    ----------
    tensor:
        Dense input tensor with ``N`` modes.
    matrices:
        Length-``N`` sequence; entry ``n`` is contracted with mode ``n``.
        ``None`` entries are skipped.
    transpose:
        If true, each matrix is transposed before contraction — the
        idiom for projecting onto factor subspaces (core recovery).
    skip:
        Optional mode indices to skip even if a matrix is given
        (used by HOOI's leave-one-out projections).

    Notes
    -----
    Modes are processed in increasing order; because each product
    touches a different mode the order does not affect the result.
    """
    tensor = np.asarray(tensor)
    if len(matrices) != tensor.ndim:
        raise ShapeError(
            f"need one matrix per mode ({tensor.ndim}), got {len(matrices)}"
        )
    skip_set = set() if skip is None else {check_mode(tensor.ndim, s) for s in skip}
    with _span("multi-ttm", "tensor-op", shape=tensor.shape,
               transpose=transpose):
        result = tensor
        for mode, matrix in enumerate(matrices):
            if matrix is None or mode in skip_set:
                continue
            operand = np.asarray(matrix).T if transpose else np.asarray(matrix)
            result = ttm(result, operand, mode)
        return result
