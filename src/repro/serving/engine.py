"""Factor-space query evaluation: answers from Tucker factors alone.

The TuckerMPI observation this module operationalises: once an
ensemble lives as ``[G; U^(1), ..., U^(N)]``, any cell value is a tiny
core×factor-row contraction and any hyperplane is a one-row TTM —
recoverable at a fraction of dense cost, so the full tensor never
needs to exist.  :meth:`TuckerTensor.reconstruct` is metered
(``tucker.reconstructs``) precisely so serving tests can assert this
engine leaves the counter untouched.

Three query shapes:

``point``
    ``x[i_1, ..., i_N] = G ×_1 u^(1)_{i_1} ... ×_N u^(N)_{i_N}`` —
    the core contracted with one row of each factor.  The batched form
    evaluates B points as *one* contraction chain over a (B, r, ...)
    accumulator, which is what the server's request coalescing buys.
``slice``
    The dense hyperplane ``mode = index``: contract the core with the
    single factor row of the sliced mode, then apply the remaining
    factors — cost ``O(prod(ranks) + slice size × rank)`` instead of
    ``O(prod(shape))``.
``top-k anomalies``
    Residual ranking of every *simulated* cell: its stored value minus
    its factor prediction, scored in one batched point evaluation and
    stable-sorted, largest residual first.  A catalog engine gets the
    ranking its bundle computed from the tensor the HOSVD already read
    (:func:`~repro.serving.bundle.compute_bundle`), so a query takes
    the first k rows (of one hyperplane, if asked) and reads no block;
    resident memory is the bundle's cells.  Large residuals mark cells
    the decomposition's dominant patterns cannot explain — the
    ensemble's anomalies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import QueryError
from ..observability import get_metrics, span as _span
from ..tensor.tucker import TuckerTensor
from ..tensor.ttm import ttm


def _check_coords(shape: Tuple[int, ...], coords: np.ndarray) -> np.ndarray:
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    if coords.ndim != 2 or coords.shape[1] != len(shape):
        raise QueryError(
            f"point index needs {len(shape)} coordinates, got "
            f"shape {coords.shape}"
        )
    upper = np.asarray(shape, dtype=np.int64)
    if coords.size and ((coords < 0).any() or (coords >= upper).any()):
        bad = coords[((coords < 0) | (coords >= upper)).any(axis=1)][0]
        raise QueryError(
            f"index {tuple(int(i) for i in bad)} out of bounds for "
            f"shape {shape}"
        )
    return coords


Anomaly = Tuple[Tuple[int, ...], float, float, float]


@dataclass(frozen=True)
class ResidualRanking:
    """Stored cells sorted by ``|stored - predicted|``, largest first.

    ``coords`` is ``(n, N)``; the other three arrays are ``(n,)`` and
    row-aligned with it.  Exactly tied residuals keep the order the
    cells were scored in.
    """

    coords: np.ndarray
    stored: np.ndarray
    predicted: np.ndarray
    residual: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(
            self.coords.nbytes + self.stored.nbytes
            + self.predicted.nbytes + self.residual.nbytes
        )

    def take(
        self, k: int, mode: Optional[int] = None, index: Optional[int] = None
    ) -> List[Anomaly]:
        """The first k rows — of the hyperplane ``mode = index`` when
        both are given — as ``(index, stored, predicted, residual)``."""
        if mode is not None and index is not None:
            rows = np.flatnonzero(self.coords[:, mode] == index)[:k]
        else:
            rows = np.arange(min(k, self.residual.shape[0]))
        return [
            (
                tuple(int(i) for i in self.coords[r]),
                float(self.stored[r]),
                float(self.predicted[r]),
                float(self.residual[r]),
            )
            for r in rows
        ]


class FactorEngine:
    """Evaluate point/slice/anomaly queries from one Tucker decomposition.

    Parameters
    ----------
    tucker:
        The decomposition to serve from; its factors are the only
        state this engine touches.
    study:
        Label stamped onto spans/metrics (the catalog key).
    ranking:
        The residual ranking of the stored cells these factors were
        fitted to, when the caller already has it (the catalog passes
        its bundle's); top-k queries then read no block.
    """

    def __init__(
        self,
        tucker: TuckerTensor,
        study: str = "",
        ranking: Optional[ResidualRanking] = None,
    ):
        self.tucker = tucker
        self.study = study
        self.ranking = ranking

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.tucker.shape

    # ------------------------------------------------------------------
    # point queries
    # ------------------------------------------------------------------
    def point_batch(self, coords) -> np.ndarray:
        """Values of B cells as one batched contraction chain.

        ``coords`` is ``(B, N)`` integer indices; returns ``(B,)``
        float values.  The accumulator starts as the core contracted
        with the mode-0 factor rows and loses one rank axis per
        remaining mode — never materialising anything larger than
        ``B × prod(ranks[1:])``.
        """
        coords = _check_coords(self.shape, coords)
        t = self.tucker
        with _span(
            "serving-point", "serving", study=self.study,
            batch=coords.shape[0],
        ):
            if coords.shape[0] == 0:
                return np.empty((0,), dtype=np.float64)
            rows = t.factors[0][coords[:, 0], :]           # (B, r_0)
            acc = np.tensordot(rows, t.core, axes=([1], [0]))
            for mode in range(1, t.ndim):
                rows = t.factors[mode][coords[:, mode], :]  # (B, r_mode)
                acc = np.einsum("bi...,bi->b...", acc, rows)
            get_metrics().counter("serving.points_evaluated").inc(
                coords.shape[0]
            )
            return np.asarray(acc, dtype=np.float64)

    def point(self, index: Sequence[int]) -> float:
        """One cell value, ``G`` contracted with one row per factor."""
        return float(self.point_batch(np.asarray(index)[None, :])[0])

    # ------------------------------------------------------------------
    # slice queries
    # ------------------------------------------------------------------
    def _check_slice(self, mode: int, index: int) -> Tuple[int, int]:
        shape = self.shape
        if not 0 <= int(mode) < len(shape):
            raise QueryError(
                f"mode {mode} out of range for {len(shape)} modes"
            )
        mode = int(mode)
        if not 0 <= int(index) < shape[mode]:
            raise QueryError(
                f"index {index} out of range for mode {mode} "
                f"(size {shape[mode]})"
            )
        return mode, int(index)

    def slice(self, mode: int, index: int) -> np.ndarray:
        """The dense hyperplane ``mode = index`` (that mode dropped).

        One factor-row TTM: the sliced mode collapses to a single row
        contraction on the *core*, then the remaining factors expand
        the reduced core to the slice's full extent.
        """
        t = self.tucker
        mode, index = self._check_slice(mode, index)
        with _span(
            "serving-slice", "serving", study=self.study, mode=mode,
            index=index,
        ):
            row = t.factors[mode][index]                    # (r_mode,)
            reduced = np.tensordot(t.core, row, axes=([mode], [0]))
            out = reduced
            remaining = [f for m, f in enumerate(t.factors) if m != mode]
            for m, factor in enumerate(remaining):
                out = ttm(out, factor, m)
            get_metrics().counter("serving.slices_evaluated").inc()
            return out

    # ------------------------------------------------------------------
    # anomaly queries
    # ------------------------------------------------------------------
    def rank_residuals(self, coords, stored) -> ResidualRanking:
        """Score cells ``|stored - predicted|`` in one batched point
        evaluation and stable-sort them, largest residual first."""
        coords = _check_coords(self.shape, coords)
        stored = np.asarray(stored, dtype=np.float64)
        predicted = self.point_batch(coords)
        residual = np.abs(stored - predicted)
        order = np.argsort(-residual, kind="stable")
        get_metrics().counter("serving.cells_scored").inc(coords.shape[0])
        return ResidualRanking(
            coords[order], stored[order], predicted[order], residual[order]
        )

    def topk_anomalies(
        self,
        store,
        name: str,
        k: int,
        mode: Optional[int] = None,
        index: Optional[int] = None,
    ) -> List[Anomaly]:
        """The k simulated cells the factors explain worst.

        Answers from the engine's ranking when it has one (``store``
        and ``name`` are then not read).  Otherwise ranks the cells of
        ``name`` in ``store`` (a
        :class:`~repro.storage.BlockTensorStore`) — the whole tensor
        when ``mode``/``index`` are omitted, one ``slice_query``
        hyperplane otherwise.

        Returns ``[(index, stored, predicted, residual), ...]`` sorted
        by residual, largest first.
        """
        if k < 1:
            raise QueryError(f"top-k needs k >= 1, got {k}")
        restricted = mode is not None and index is not None
        if restricted:
            mode, index = self._check_slice(mode, index)
        with _span(
            "serving-topk", "serving", study=self.study, k=k,
            source="store" if self.ranking is None else "bundle",
        ):
            ranking = self.ranking
            if ranking is None:
                sparse = (
                    store.slice_query(name, mode=mode, index=index)
                    if restricted else store.get(name)
                )
                ranking = self.rank_residuals(sparse.coords, sparse.values)
            return ranking.take(k, mode, index)
