"""Coordinate-format (COO) sparse tensors.

Simulation ensembles are inherently sparse (Section III-D of the
paper): of the :math:`I_1 \\times \\cdots \\times I_N` potential
simulations only the budgeted :math:`B` cells carry values, the rest
are *null*.  :class:`SparseTensor` stores exactly the executed cells as
an ``(nnz, N)`` integer coordinate array plus an ``(nnz,)`` value
array.

A deliberate modelling point: a stored value of ``0.0`` is *not* the
same as an absent cell.  An absent cell means "simulation never run",
while an explicit zero means "simulation ran and its output was 0".
Zero-join stitching (Section V-C2) relies on this distinction.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

import numpy as np
import scipy.sparse as sps

from ..exceptions import ModeError, ShapeError
from ..observability import get_metrics
from .unfold import check_mode


class SparseTensor:
    """An N-mode sparse tensor in coordinate format.

    Parameters
    ----------
    shape:
        Tensor shape ``(I_1, ..., I_N)``.
    coords:
        Integer array-like of shape ``(nnz, N)``; one row per stored cell.
    values:
        Float array-like of shape ``(nnz,)``.

    Duplicate coordinates are combined by *averaging* (the natural
    semantics for repeated simulations of the same configuration).
    """

    __slots__ = ("shape", "coords", "values")

    def __init__(self, shape: Tuple[int, ...], coords=None, values=None):
        self.shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in self.shape):
            raise ShapeError(f"all mode sizes must be positive, got {self.shape}")
        if coords is None:
            coords = np.empty((0, len(self.shape)), dtype=np.int64)
        if values is None:
            values = np.empty((0,), dtype=np.float64)
        coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
        values = np.asarray(values, dtype=np.float64).ravel()
        if coords.size == 0:
            coords = coords.reshape((0, len(self.shape)))
        if coords.shape[1] != len(self.shape):
            raise ShapeError(
                f"coords have {coords.shape[1]} columns, tensor has "
                f"{len(self.shape)} modes"
            )
        if coords.shape[0] != values.shape[0]:
            raise ShapeError(
                f"{coords.shape[0]} coordinates but {values.shape[0]} values"
            )
        if coords.size:
            upper = np.asarray(self.shape, dtype=np.int64)
            if (coords < 0).any() or (coords >= upper).any():
                raise ShapeError("coordinate out of bounds for tensor shape")
        self.coords, self.values = self._combine_duplicates(coords, values)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _combine_duplicates(coords: np.ndarray, values: np.ndarray):
        """Average values sharing the same coordinate; sort rows."""
        if coords.shape[0] == 0:
            return coords, values
        order = np.lexsort(coords.T[::-1])
        coords = coords[order]
        values = values[order]
        keep = np.ones(coords.shape[0], dtype=bool)
        keep[1:] = (coords[1:] != coords[:-1]).any(axis=1)
        if keep.all():
            return coords, values
        group_ids = np.cumsum(keep) - 1
        n_groups = group_ids[-1] + 1
        sums = np.zeros(n_groups)
        counts = np.zeros(n_groups)
        np.add.at(sums, group_ids, values)
        np.add.at(counts, group_ids, 1.0)
        return coords[keep], sums / counts

    @classmethod
    def from_dict(
        cls, shape: Tuple[int, ...], cells: Dict[tuple, float]
    ) -> "SparseTensor":
        """Build from a ``{multi_index: value}`` mapping."""
        if not cells:
            return cls(shape)
        coords = np.array(list(cells.keys()), dtype=np.int64)
        values = np.array(list(cells.values()), dtype=np.float64)
        return cls(shape, coords, values)

    @classmethod
    def from_dense(cls, dense: np.ndarray, keep_zeros: bool = False) -> "SparseTensor":
        """Build from a dense array, dropping exact zeros by default."""
        dense = np.asarray(dense, dtype=np.float64)
        if keep_zeros:
            coords = np.argwhere(np.ones_like(dense, dtype=bool))
            values = dense.ravel(order="C")
            # argwhere is C-ordered, so values align with C-raveled dense.
            return cls(dense.shape, coords, values)
        mask = dense != 0
        coords = np.argwhere(mask)
        values = dense[mask]
        return cls(dense.shape, coords, values)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def density(self) -> float:
        """Fraction of cells that are stored (the paper's ensemble density)."""
        return self.nnz / self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseTensor(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3g})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseTensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.coords, other.coords)
            and np.allclose(self.values, other.values)
        )

    def __hash__(self):  # tensors are mutable-ish containers
        raise TypeError("SparseTensor is unhashable")

    def items(self) -> Iterator[Tuple[tuple, float]]:
        """Iterate over ``(multi_index, value)`` pairs."""
        for row, value in zip(self.coords, self.values):
            yield tuple(int(i) for i in row), float(value)

    def get(self, multi_index: Iterable[int], default: float = 0.0) -> float:
        """Value at ``multi_index``, or ``default`` if the cell is null.

        This is a point lookup intended for tests and small tensors;
        bulk consumers should use :meth:`to_dense` or the unfoldings.
        """
        target = np.asarray(tuple(multi_index), dtype=np.int64)
        if target.shape != (self.ndim,):
            raise ShapeError(
                f"index length {target.shape} != tensor order {self.ndim}"
            )
        matches = (self.coords == target).all(axis=1)
        hit = np.flatnonzero(matches)
        if hit.size == 0:
            return default
        return float(self.values[hit[0]])

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (null cells become 0.0).

        Metered as ``tensor.dense_unfolds``, so a caller can assert
        that a path never densified its sparse input.
        """
        get_metrics().counter("tensor.dense_unfolds").inc()
        dense = np.zeros(self.shape, dtype=np.float64)
        if self.nnz:
            dense[tuple(self.coords.T)] = self.values
        return dense

    def unfold_csr(self, mode: int) -> sps.csr_matrix:
        """Mode-``mode`` matricization as a scipy CSR matrix.

        Shares the Fortran-order column convention of
        :func:`repro.tensor.unfold.unfold`, so densifying it gives
        exactly the dense unfolding of :meth:`to_dense`.
        """
        mode = check_mode(self.ndim, mode)
        cols = np.zeros(self.nnz, dtype=np.int64)
        stride = 1
        for axis, size in enumerate(self.shape):
            if axis == mode:
                continue
            cols += self.coords[:, axis] * stride
            stride *= size
        return sps.csr_matrix(
            (self.values, (self.coords[:, mode], cols)),
            shape=(self.shape[mode], self.size // self.shape[mode]),
        )

    def frobenius_norm(self) -> float:
        """Frobenius norm over stored cells (null cells contribute 0)."""
        return float(np.linalg.norm(self.values))

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def transpose(self, permutation: Iterable[int]) -> "SparseTensor":
        """Permute modes; ``permutation[i]`` is the source mode of new mode ``i``."""
        permutation = tuple(int(p) for p in permutation)
        if sorted(permutation) != list(range(self.ndim)):
            raise ModeError(
                f"{permutation} is not a permutation of 0..{self.ndim - 1}"
            )
        new_shape = tuple(self.shape[p] for p in permutation)
        new_coords = (
            self.coords[:, permutation]
            if self.nnz
            else self.coords.reshape((0, self.ndim))
        )
        return SparseTensor(new_shape, new_coords, self.values.copy())

    def scale(self, factor: float) -> "SparseTensor":
        """Return a copy with every stored value multiplied by ``factor``."""
        return SparseTensor(self.shape, self.coords.copy(), self.values * factor)

    def slice_mode(self, mode: int, index: int) -> "SparseTensor":
        """Fix ``mode`` at ``index`` and drop it, returning an (N-1)-mode tensor."""
        mode = check_mode(self.ndim, mode)
        if not 0 <= index < self.shape[mode]:
            raise ModeError(f"index {index} out of range for mode {mode}")
        if self.ndim == 1:
            raise ShapeError("cannot drop the only mode of a 1-mode tensor")
        mask = self.coords[:, mode] == index
        kept_axes = [a for a in range(self.ndim) if a != mode]
        new_shape = tuple(self.shape[a] for a in kept_axes)
        new_coords = self.coords[mask][:, kept_axes]
        return SparseTensor(new_shape, new_coords, self.values[mask])
