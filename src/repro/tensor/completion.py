"""EM-style Tucker completion for tensors with missing entries.

The paper's conventional baselines decompose the sparse ensemble
tensor treating *null* cells as zeros.  A classic stronger treatment
is expectation-maximization imputation: alternate between (E) filling
the missing cells from the current low-rank reconstruction and (M)
re-fitting the Tucker model on the completed tensor.  This module
implements that baseline so the harness can ask whether completion —
rather than better sampling — could rescue the conventional schemes
(extension experiment; spoiler: at ensemble sparsity levels it
cannot, which strengthens the paper's case for partition-stitch
sampling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import RankError, ShapeError
from .ops import accuracy
from .sparse import SparseTensor
from .tucker import TuckerTensor, hosvd, validate_ranks


@dataclass
class CompletionResult:
    """Outcome of EM-Tucker completion."""

    tucker: TuckerTensor
    completed: np.ndarray
    n_iterations: int
    converged: bool

    def reconstruct(self) -> np.ndarray:
        return self.tucker.reconstruct()


def em_tucker(
    observed: SparseTensor,
    ranks: Sequence[int],
    n_iter: int = 25,
    tol: float = 1e-6,
) -> CompletionResult:
    """Tucker completion by EM imputation.

    Parameters
    ----------
    observed:
        The sparse tensor of observed cells (explicit zeros count as
        observations; nulls are the cells to impute).
    ranks:
        Tucker rank per mode.
    n_iter:
        Maximum EM sweeps.
    tol:
        Stop when the imputed values' relative change falls below this.

    Returns
    -------
    CompletionResult
        Final model, the completed dense tensor, and convergence info.
    """
    if not isinstance(observed, SparseTensor):
        raise ShapeError("em_tucker expects a SparseTensor of observations")
    ranks = validate_ranks(observed.shape, ranks)
    if observed.nnz == 0:
        raise RankError("cannot complete a tensor with no observations")
    mask = np.zeros(observed.shape, dtype=bool)
    mask[tuple(observed.coords.T)] = True
    values = observed.values
    completed = np.zeros(observed.shape, dtype=np.float64)
    completed[mask] = values
    # Initialize the missing cells at the observed mean (better than 0
    # for all-positive distance data).
    missing = ~mask
    completed[missing] = values.mean()
    previous_missing = completed[missing].copy()
    converged = False
    iterations = 0
    tucker = hosvd(completed, ranks)
    for iterations in range(1, max(1, int(n_iter)) + 1):
        tucker = hosvd(completed, ranks)
        reconstruction = tucker.reconstruct()
        completed[missing] = reconstruction[missing]
        completed[mask] = values  # observed cells are pinned
        current_missing = completed[missing]
        denom = np.linalg.norm(previous_missing)
        change = np.linalg.norm(current_missing - previous_missing)
        previous_missing = current_missing.copy()
        if denom > 0 and change / denom < tol:
            converged = True
            break
    return CompletionResult(
        tucker=tucker,
        completed=completed,
        n_iterations=iterations,
        converged=converged,
    )


def completion_accuracy(
    result: CompletionResult, truth: np.ndarray
) -> float:
    """The paper's accuracy measure for the *completed* tensor."""
    return accuracy(result.completed, truth)
