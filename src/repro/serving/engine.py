"""Factor-space query evaluation: answers from Tucker factors alone.

The TuckerMPI observation this module operationalises: once an
ensemble lives as ``[G; U^(1), ..., U^(N)]``, any cell value is a tiny
core×factor-row contraction and any hyperplane is one factor row times
a projected core — recoverable at a fraction of dense cost, so the
full tensor never needs to exist.  :meth:`TuckerTensor.reconstruct`
is metered (``tucker.reconstructs``) precisely so serving tests can
assert this engine leaves the counter untouched.

Three query shapes:

``point``
    ``x[i_1, ..., i_N] = G ×_1 u^(1)_{i_1} ... ×_N u^(N)_{i_N}`` —
    the core contracted with one row of each factor.  The batched form
    evaluates B points as *one* contraction chain over a (B, r, ...)
    accumulator, which is what the server's request coalescing buys.
``slice``
    The dense hyperplanes ``mode = index`` for B indices: project the
    core through every *other* factor once,
    ``P_m = G ×_{k≠m} U^(k)`` (``r_m × prod_{k≠m} I_k``, the tensor
    layer's :func:`~repro.tensor.ttm.multi_ttm` on the core with mode
    ``m`` moved first and left out: one GEMM per other mode), then
    compute each *distinct* index's hyperplane as one row of
    ``U^(m)[distinct] @ P_m`` — the
    partial-reconstruction pattern of Austin/Ballard/Kolda.
    :meth:`FactorEngine.slice_planes` returns those planes read-only
    with the index→plane map, so the server's per-mode grouping of a
    drain's slices pays one projection and one plane per distinct
    hyperplane, and requests for the same hyperplane share its plane.
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
from ..tensor.ttm import multi_ttm
from ..tensor.tucker import TuckerTensor


def _as_indices(values, what: str) -> np.ndarray:
    """``values`` as int64, or :class:`QueryError` unless every entry is
    a finite whole number (a float index is never truncated, a bool is
    never read as 0 or 1)."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = np.asarray(values, dtype=object)
    whole = arr.dtype.kind in "iu" or (
        arr.dtype.kind == "f"
        and np.isfinite(arr).all()
        and (arr == np.trunc(arr)).all()
    )
    if whole and arr.dtype.kind in "iu" and not isinstance(values, np.ndarray):
        # numpy promotes a bool mixed with ints to an int: look at the
        # entries themselves (rectangular here, since the cast passed).
        whole = not any(
            isinstance(v, (bool, np.bool_))
            for v in np.asarray(values, dtype=object).flat
        )
    if not whole:
        raise QueryError(f"{what} must be whole numbers, got {values!r}")
    return arr.astype(np.int64, copy=False)


def _as_index(value, what: str) -> int:
    """One finite whole number as an int, checked in plain Python.

    Accepts an ``int``, an ``np.integer``, an integral finite float and
    a 0-d array of those; rejects ``bool``, strings, NaN, ±inf and
    fractional floats with :class:`QueryError` (a float index is never
    truncated), and any sequence as not a single number.
    """
    if type(value) is int:
        return value
    if (
        isinstance(value, np.ndarray) and value.ndim == 0
        and value.dtype.kind in "biuf"
    ):
        value = value.item()
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        raise QueryError(f"{what} must be a single number, got {value!r}")
    raise QueryError(f"{what} must be whole numbers, got {value!r}")


def _check_point(shape: Tuple[int, ...], index) -> Tuple[int, ...]:
    """One cell index as a tuple of ints inside ``shape``, checked
    coordinate by coordinate with :func:`_as_index` (no array built)."""
    if type(index) is tuple and len(index) == len(shape):
        for coord, size in zip(index, shape):
            if type(coord) is not int or not 0 <= coord < size:
                break
        else:
            return index
    try:
        coords = tuple([
            i if type(i) is int else _as_index(i, "point index")
            for i in index
        ])
    except TypeError:  # not iterable
        coords = None
    if coords is None or len(coords) != len(shape):
        raise QueryError(
            f"point index needs {len(shape)} coordinates, got {index!r}"
        )
    for coord, size in zip(coords, shape):
        if coord < 0 or coord >= size:
            raise QueryError(
                f"index {coords} out of bounds for shape {shape}"
            )
    return coords


def _check_coords(shape: Tuple[int, ...], coords) -> np.ndarray:
    """A ``(B, N)`` array of cell indices as int64 inside ``shape``."""
    coords = np.atleast_2d(_as_indices(coords, "point index"))
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


def _restricted(mode, index) -> bool:
    """Whether a top-k query names a hyperplane: both ``mode`` and
    ``index`` given, or neither; one alone is a :class:`QueryError`."""
    if (mode is None) != (index is None):
        given = "mode" if index is None else "index"
        raise QueryError(
            f"a top-k restriction needs both mode and index, got only {given}"
        )
    return mode is not None


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
        both are given, never one alone — as ``(index, stored,
        predicted, residual)``."""
        if _restricted(mode, index):
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
        return self._point_values(_check_coords(self.shape, coords))

    def _point_values(self, coords: np.ndarray) -> np.ndarray:
        """:meth:`point_batch` of a ``(B, N)`` int64 array already
        checked against the shape (the server's drain, whose points
        were validated at submit)."""
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
        coords = _check_point(self.shape, index)
        return float(
            self._point_values(np.array([coords], dtype=np.int64))[0]
        )

    # ------------------------------------------------------------------
    # slice queries
    # ------------------------------------------------------------------
    def _check_slice(self, mode, index) -> Tuple[int, int]:
        mode = self._check_mode(mode)
        index = _as_index(index, "index")
        size = self.tucker.factors[mode].shape[0]
        if index < 0 or index >= size:
            raise QueryError(
                f"index {index} out of range for mode {mode} (size {size})"
            )
        return mode, index

    def _check_mode(self, mode) -> int:
        mode = _as_index(mode, "mode")
        if not 0 <= mode < self.tucker.ndim:
            raise QueryError(
                f"mode {mode} out of range for {self.tucker.ndim} modes"
            )
        return mode

    def _check_indices(self, mode: int, indices) -> np.ndarray:
        indices = _as_indices(indices, "slice index")
        size = self.shape[mode]
        bad = indices[(indices < 0) | (indices >= size)]
        if bad.size:
            raise QueryError(
                f"index {int(bad.flat[0])} out of range for mode {mode} "
                f"(size {size})"
            )
        return indices

    def slice_planes(
        self, mode: int, indices
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct hyperplanes among ``mode = i`` for ``i`` in
        ``indices``, and the map from each index to its plane.

        Returns ``(planes, which)``: ``planes`` is a read-only
        ``(D, *other mode sizes)`` array holding each distinct index's
        hyperplane once, in ascending index order, and
        ``planes[which[j]]`` is the hyperplane of ``indices[j]``.  The
        core is projected through every other factor once,
        ``P_m = G ×_{k≠m} U^(k)`` shaped ``r_m × prod_{k≠m} I_k`` (one
        :func:`~repro.tensor.ttm.multi_ttm` of the core with mode ``m``
        moved first and left out); the
        D planes are then ``U^(m)[distinct] @ P_m``, at most ``I_m``
        rows however often an index repeats, each row bit-identical to
        the one a lone :meth:`slice` of that index computes.
        """
        t = self.tucker
        mode = self._check_mode(mode)
        rows = np.ravel(self._check_indices(mode, indices))
        distinct, which = np.unique(rows, return_inverse=True)
        others = [size for m, size in enumerate(self.shape) if m != mode]
        with _span(
            "serving-slice", "serving", study=self.study, mode=mode,
            batch=rows.shape[0], planes=distinct.shape[0],
        ):
            # P_m, the tensor layer's contraction with this mode left
            # out.  The core is moved so its rank r_m leads, so the
            # result is already (r_m, I_k for k != m) in C order; moving
            # the product instead would copy all of it.
            projected = multi_ttm(
                np.moveaxis(t.core, mode, 0),
                [None] + [f for m, f in enumerate(t.factors) if m != mode],
            )
            # A stack of one-row products, not one many-row GEMM: BLAS
            # rounds the two differently, and a plane must not depend
            # on which other hyperplanes its drain asked for.
            planes = (
                t.factors[mode][distinct][:, None, :]
                @ projected.reshape(projected.shape[0], -1)
            ).reshape(distinct.shape[0], *others)
            planes.flags.writeable = False
            get_metrics().counter("serving.slices_evaluated").inc(
                rows.shape[0]
            )
            return planes, which

    def slice_batch(self, mode: int, indices) -> np.ndarray:
        """The dense hyperplanes ``mode = i`` for every ``i`` in
        ``indices``, stacked into a fresh ``(B, *other mode sizes)``
        array.  Indices may repeat and come in any order; each distinct
        one is computed once (:meth:`slice_planes`)."""
        planes, which = self.slice_planes(mode, indices)
        return planes[which]

    def slice(self, mode: int, index: int) -> np.ndarray:
        """The dense hyperplane ``mode = index`` (that mode dropped):
        a one-row :meth:`slice_batch`."""
        mode, index = self._check_slice(mode, index)
        return self.slice_batch(mode, [index])[0]

    # ------------------------------------------------------------------
    # anomaly queries
    # ------------------------------------------------------------------
    def rank_residuals(self, coords, stored) -> ResidualRanking:
        """Score cells ``|stored - predicted|`` in one batched point
        evaluation and stable-sort them, largest residual first."""
        coords = _check_coords(self.shape, coords)
        stored = np.asarray(stored, dtype=np.float64)
        predicted = self._point_values(coords)
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
        when ``mode`` and ``index`` are both omitted, one
        ``slice_query`` hyperplane when both are given; one alone is a
        :class:`QueryError`.

        Returns ``[(index, stored, predicted, residual), ...]`` sorted
        by residual, largest first.
        """
        k = _as_index(k, "k")
        if k < 1:
            raise QueryError(f"top-k needs k >= 1, got {k}")
        restricted = _restricted(mode, index)
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
