"""Elementary multilinear operations: Kronecker, Khatri-Rao, outer
products, and norm/inner-product helpers shared across the library.
"""

from __future__ import annotations

from typing import Sequence, Type

import numpy as np

from ..exceptions import ReproError, ShapeError


def kron(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    if not matrices:
        raise ShapeError("kron needs at least one matrix")
    result = np.asarray(matrices[0])
    for matrix in matrices[1:]:
        result = np.kron(result, np.asarray(matrix))
    return result


def khatri_rao(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise Khatri-Rao product.

    All matrices must share the same number of columns ``R``; the
    result has ``prod(rows)`` rows and ``R`` columns, with the *first*
    matrix's row index varying slowest (standard CP convention).
    """
    if not matrices:
        raise ShapeError("khatri_rao needs at least one matrix")
    arrays = [np.asarray(m) for m in matrices]
    for matrix in arrays:
        if matrix.ndim != 2:
            raise ShapeError("khatri_rao operands must be matrices")
    n_cols = arrays[0].shape[1]
    for matrix in arrays:
        if matrix.shape[1] != n_cols:
            raise ShapeError(
                "khatri_rao operands must share the same column count"
            )
    result = arrays[0]
    for matrix in arrays[1:]:
        # (I, R) ⊙ (J, R) -> (I*J, R): broadcast then reshape.
        result = (result[:, None, :] * matrix[None, :, :]).reshape(
            -1, n_cols
        )
    return result


def outer(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Outer product of N vectors, producing an N-mode rank-1 tensor."""
    if not vectors:
        raise ShapeError("outer needs at least one vector")
    result = np.asarray(vectors[0]).ravel()
    for vector in vectors[1:]:
        result = np.multiply.outer(result, np.asarray(vector).ravel())
    return result


def frobenius_norm(tensor: np.ndarray) -> float:
    """Frobenius norm of a dense tensor."""
    return float(np.linalg.norm(np.asarray(tensor).ravel()))


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product of two equally shaped tensors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"inner product needs equal shapes, {a.shape} vs {b.shape}")
    return float(np.dot(a.ravel(), b.ravel()))


def accuracy(
    approx: np.ndarray,
    truth: np.ndarray,
    *,
    invalid_truth: Type[ReproError] = ShapeError,
) -> float:
    """The paper's accuracy: ``1 - relative Frobenius error``.

    Values close to 1 are near-perfect; a reconstruction of all-zeros
    scores ~0 — which is exactly where the conventional sparse
    baselines land in Table II.  A truth with zero norm or a non-finite
    cell has no accuracy to score against and raises ``invalid_truth``
    (never a silent ``nan``); a shape mismatch raises
    :class:`ShapeError`.
    """
    approx = np.asarray(approx, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if approx.shape != truth.shape:
        raise ShapeError(
            f"approx shape {approx.shape} != truth shape {truth.shape}"
        )
    if not np.isfinite(truth).all():
        raise invalid_truth("ground-truth tensor has non-finite cells")
    denom = np.linalg.norm(truth.ravel())
    if denom == 0:
        raise invalid_truth("ground-truth tensor has zero norm")
    return 1.0 - np.linalg.norm((approx - truth).ravel()) / denom


def relative_error(approx: np.ndarray, reference: np.ndarray) -> float:
    """``||approx - reference||_F / ||reference||_F``.

    Returns ``inf`` when the reference is the zero tensor but the
    approximation is not, and ``0`` when both are zero.
    """
    approx = np.asarray(approx, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if approx.shape != reference.shape:
        raise ShapeError(
            f"relative_error needs equal shapes, {approx.shape} vs {reference.shape}"
        )
    ref_norm = frobenius_norm(reference)
    diff_norm = frobenius_norm(approx - reference)
    if ref_norm == 0.0:
        return 0.0 if diff_norm == 0.0 else float("inf")
    return diff_norm / ref_norm
