"""Elementary multilinear operations: the outer product, and the norm,
accuracy and relative-error helpers shared across the library.
"""

from __future__ import annotations

from typing import Sequence, Type

import numpy as np

from ..exceptions import ReproError, ShapeError


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
