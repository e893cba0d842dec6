"""ROW_SELECT (paper Algorithm 5) and the factor combiners used for
pivot modes by the three M2TD variants.

Each combiner answers the same question: given the two factor matrices
``U1`` and ``U2`` that sub-systems 1 and 2 independently derived for a
*shared* pivot mode, produce the single factor matrix the join-tensor
decomposition will use for that mode.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError


def _check_pair(u1: np.ndarray, u2: np.ndarray) -> None:
    if u1.ndim != 2 or u2.ndim != 2:
        raise ShapeError("factor matrices must be 2-D")
    if u1.shape != u2.shape:
        raise ShapeError(
            f"pivot factor matrices must share a shape, got {u1.shape} "
            f"and {u2.shape}"
        )


def align_columns(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Sign-align ``u2``'s columns to ``u1``'s.

    Left singular vectors are only defined up to sign; the per-matrix
    deterministic convention of :mod:`repro.tensor.svd` can still pick
    opposite signs for the two sub-decompositions of a shared pivot
    mode.  Both AVG (averaging) and SELECT (row mixing) silently
    degrade when corresponding columns point opposite ways, so the
    combiners align ``u2`` by the sign of each column correlation
    first.  Zero-correlation columns are left untouched.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.array(u2, dtype=np.float64, copy=True)
    _check_pair(u1, u2)
    correlation = np.einsum("ij,ij->j", u1, u2)
    u2[:, correlation < 0] *= -1.0
    return u2


def average_factors(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """M2TD-AVG's combiner: the element-wise average (Figure 10(a)).

    The average of two orthonormal bases is generally not orthonormal —
    the weakness M2TD-CONCAT and M2TD-SELECT each address differently.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = align_columns(u1, u2)
    return 0.5 * (u1 + u2)


def row_select(
    u1: np.ndarray,
    u2: np.ndarray,
    singular_values1: np.ndarray = None,
    singular_values2: np.ndarray = None,
) -> np.ndarray:
    """M2TD-SELECT's combiner (Algorithm 5, Figure 10(b)).

    For each row ``i`` (an entity of the pivot domain), keep the row
    with the larger 2-norm *energy* — the sub-system that represents
    that entity more strongly — instead of letting the weaker row act
    as noise on the stronger one.

    When the singular values of the two sub-decompositions are given,
    row energies are measured on ``U @ diag(s)`` — the entity's actual
    spectral energy in its sub-ensemble — rather than on the
    orthonormal ``U`` alone, whose row norms are mere leverage scores
    and carry no information about how strongly each sub-system
    expresses the entity.  The selected rows themselves are always
    copied from the orthonormal matrices.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = align_columns(u1, u2)
    if singular_values1 is not None and singular_values2 is not None:
        s1 = np.asarray(singular_values1, dtype=np.float64).ravel()
        s2 = np.asarray(singular_values2, dtype=np.float64).ravel()
        if s1.shape[0] != u1.shape[1] or s2.shape[0] != u2.shape[1]:
            raise ShapeError(
                "singular value vectors must match factor column counts"
            )
        energy1 = np.linalg.norm(u1 * s1[None, :], axis=1)
        energy2 = np.linalg.norm(u2 * s2[None, :], axis=1)
    else:
        energy1 = np.linalg.norm(u1, axis=1)
        energy2 = np.linalg.norm(u2, axis=1)
    take_first = energy1 >= energy2
    return np.where(take_first[:, None], u1, u2)


def row_select_source(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Which sub-system each row was taken from (1 or 2).

    Diagnostic companion to :func:`row_select`, used by tests and the
    pivot-choice analysis.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    _check_pair(u1, u2)
    energy1 = np.linalg.norm(u1, axis=1)
    energy2 = np.linalg.norm(u2, axis=1)
    return np.where(energy1 >= energy2, 1, 2)
