"""ROW_SELECT (paper Algorithm 5) and the factor combiners used for
pivot modes by the three M2TD variants.

Each combiner answers the same question: given the factor matrices
that the sub-systems independently derived for a *shared* pivot mode,
produce the single factor matrix the join-tensor decomposition will
use for that mode.  :func:`combine_pivot_factors` answers it for any
number of sub-systems; :func:`average_factors` and :func:`row_select`
are its two-sided forms.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence

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


def _aligned(factors: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Every factor matrix sign-aligned to the first."""
    reference = np.asarray(factors[0], dtype=np.float64)
    return [reference] + [align_columns(reference, u) for u in factors[1:]]


def _winners(
    aligned: Sequence[np.ndarray],
    singular_values: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """SELECT's winner rule: per row, the index of the side with the
    largest row energy; a tie goes to the lowest side."""
    if singular_values is None:
        weighted = aligned
    else:
        svals = [
            np.asarray(s, dtype=np.float64).ravel() for s in singular_values
        ]
        if any(s.shape[0] != u.shape[1] for u, s in zip(aligned, svals)):
            raise ShapeError(
                "singular value vectors must match factor column counts"
            )
        weighted = [u * s[None, :] for u, s in zip(aligned, svals)]
    energies = np.stack([np.linalg.norm(w, axis=1) for w in weighted])
    return energies.argmax(axis=0)


def _mean(aligned: Sequence[np.ndarray]) -> np.ndarray:
    return functools.reduce(np.add, aligned) / len(aligned)


def _select(
    aligned: Sequence[np.ndarray],
    singular_values: Optional[Sequence[np.ndarray]],
) -> np.ndarray:
    winners = _winners(aligned, singular_values)
    return np.stack(aligned)[winners, np.arange(winners.shape[0])]


def combine_pivot_factors(
    factors: Sequence[np.ndarray],
    singular_values: Sequence[np.ndarray],
    variant: str,
) -> np.ndarray:
    """AVG's or SELECT's factor matrix for one pivot mode.

    ``factors`` holds the ``m >= 2`` sides' factor matrices of that
    mode, ``singular_values`` their singular values.  Every side is
    clipped to the narrowest width and sign-aligned to the first; AVG
    takes the mean, SELECT each row from the side of largest spectral
    row energy (:func:`row_select`).
    """
    width = min(u.shape[1] for u in factors)
    aligned = _aligned([u[:, :width] for u in factors])
    if variant == "avg":
        return _mean(aligned)
    return _select(aligned, [s[:width] for s in singular_values])


def average_factors(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """M2TD-AVG's combiner: the element-wise average (Figure 10(a)).

    The average of two orthonormal bases is generally not orthonormal —
    the weakness M2TD-CONCAT and M2TD-SELECT each address differently.
    """
    return _mean(_aligned([u1, u2]))


def _pair_svals(singular_values1, singular_values2):
    if singular_values1 is None or singular_values2 is None:
        return None
    return [singular_values1, singular_values2]


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
    return _select(
        _aligned([u1, u2]), _pair_svals(singular_values1, singular_values2)
    )


def row_select_source(
    u1: np.ndarray,
    u2: np.ndarray,
    singular_values1: np.ndarray = None,
    singular_values2: np.ndarray = None,
) -> np.ndarray:
    """Which sub-system each row was taken from (1 or 2).

    Diagnostic companion to :func:`row_select`, used by tests and the
    pivot-choice analysis: given the same arguments, it labels exactly
    the rows :func:`row_select` keeps.
    """
    svals = _pair_svals(singular_values1, singular_values2)
    return _winners(_aligned([u1, u2]), svals) + 1
