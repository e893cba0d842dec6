"""Tensor-times-matrix (n-mode) products.

The n-mode product :math:`\\mathcal{X} \\times_n U` multiplies every
mode-``n`` fiber of :math:`\\mathcal{X}` by the matrix ``U``; it is the
workhorse of Tucker reconstruction and of core recovery
(:math:`G = \\mathcal{J} \\times_1 U^{(1)T} \\cdots \\times_N U^{(N)T}`,
Algorithms 2–4 of the paper).

Every product is one GEMM on the tensor's natural C layout, the local
TTM of Austin/Ballard/Kolda and TuckerMPI: :func:`_contract_leading`
contracts the *leading* axis, ``X.reshape(I, -1).T @ operand``, and
appends the new axis last.  :func:`multi_ttm` cycles: after ``N``
steps (a skipped mode is one rotation of the leading axis to the end)
the axes are back in order, and no step copies an unfolding.
:func:`ttm` is the same step with its mode rotated to the front first.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Optional, Sequence

import numpy as np

from ..exceptions import ShapeError
from ..observability import span as _span
from .unfold import check_mode


def _contract_leading(tensor: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """``tensor`` (C-contiguous, leading axis ``I``) times ``operand``
    ``(I, J)`` in one GEMM: the leading axis is consumed and the new
    axis of size ``J`` goes last."""
    rest = tensor.shape[1:]
    product = tensor.reshape(tensor.shape[0], prod(rest)).T @ operand
    return product.reshape(rest + (operand.shape[1],))


def _operand(matrix, size: int, mode: int) -> np.ndarray:
    """The ``(I, J)`` GEMM operand of a ``(J, I)`` matrix applied to a
    mode of size ``I``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ShapeError(f"ttm expects a matrix, got ndim={matrix.ndim}")
    if matrix.shape[1] != size:
        raise ShapeError(
            f"matrix has {matrix.shape[1]} columns but mode {mode} has "
            f"size {size}"
        )
    return matrix.T


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
    mode = check_mode(tensor.ndim, mode)
    operand = _operand(matrix, tensor.shape[mode], mode)
    with _span("ttm", "tensor-op", shape=tensor.shape, mode=mode,
               rows=operand.shape[1]):
        # A C-contiguous copy, as multi_ttm's step contracts: the GEMM
        # then sees the bytes and layout multi_ttm would give it.
        leading = np.ascontiguousarray(np.moveaxis(tensor, mode, 0))
        return np.moveaxis(_contract_leading(leading, operand), -1, mode)


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
    Modes are processed in increasing order, each as one GEMM on the
    leading axis of a C-contiguous array; a skipped mode is one
    rotation.  The result is C-contiguous.  A last product
    ``ttm(multi_ttm(X, F, skip=[N - 1]), F[-1], N - 1)`` makes the same
    GEMM call on the same bytes as ``multi_ttm(X, F)``'s last step, so
    the two are bit-identical (HOOI's core relies on it).
    """
    tensor = np.asarray(tensor)
    if len(matrices) != tensor.ndim:
        raise ShapeError(
            f"need one matrix per mode ({tensor.ndim}), got {len(matrices)}"
        )
    skip_set = set() if skip is None else {check_mode(tensor.ndim, s) for s in skip}
    with _span("multi-ttm", "tensor-op", shape=tensor.shape,
               transpose=transpose):
        result = np.ascontiguousarray(tensor)
        for mode, matrix in enumerate(matrices):
            if matrix is None or mode in skip_set:
                # One rotation: the leading axis goes last untouched.
                result = np.ascontiguousarray(np.moveaxis(result, 0, -1))
                continue
            if transpose:
                matrix = np.asarray(matrix).T
            operand = _operand(matrix, tensor.shape[mode], mode)
            result = _contract_leading(result, operand)
        return result
