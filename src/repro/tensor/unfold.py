"""Tensor matricization (unfolding).

The mode-``n`` unfolding of an ``N``-mode tensor arranges the mode-``n``
fibers as the columns of a matrix.  We follow the Kolda & Bader
convention (also the one the paper's HOSVD pseudocode assumes): the
mode-``n`` unfolding of a tensor of shape ``(I_1, ..., I_N)`` has shape
``(I_n, prod_{m != n} I_m)``: column index ``j`` maps to the
multi-index obtained by iterating the non-``n`` modes in order
``(1, ..., n-1, n+1, ..., N)`` with the *first* of those varying
fastest (Fortran-style), matching ``numpy.moveaxis + reshape(order='F')``.

Every consumer in the library unfolds through this module.  Nothing
folds a matrix back: the n-mode products
(:mod:`~repro.tensor.ttm`) contract the tensor's natural layout
instead of an unfolding.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ModeError, ShapeError
from ..observability import span as _span


def check_mode(ndim: int, mode: int) -> int:
    """Validate ``mode`` against a tensor with ``ndim`` modes.

    Negative modes are supported with the usual Python semantics.
    Returns the normalized (non-negative) mode index.
    """
    if not isinstance(mode, (int, np.integer)):
        raise ModeError(f"mode must be an integer, got {type(mode).__name__}")
    normalized = int(mode)
    if normalized < 0:
        normalized += ndim
    if not 0 <= normalized < ndim:
        raise ModeError(f"mode {mode} out of range for a {ndim}-mode tensor")
    return normalized


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Return the mode-``mode`` matricization of ``tensor``.

    Parameters
    ----------
    tensor:
        A dense numpy array with at least one mode.
    mode:
        The mode whose fibers become the columns of the result.

    Returns
    -------
    numpy.ndarray
        A matrix of shape ``(tensor.shape[mode], tensor.size // tensor.shape[mode])``.
    """
    tensor = np.asarray(tensor)
    if tensor.ndim == 0:
        raise ShapeError("cannot unfold a 0-mode tensor")
    mode = check_mode(tensor.ndim, mode)
    with _span("unfold", "tensor-op", shape=tensor.shape, mode=mode):
        return np.moveaxis(tensor, mode, 0).reshape(
            (tensor.shape[mode], -1), order="F"
        )
