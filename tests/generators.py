"""Seeded test inputs: low-rank, sparse and orthonormal generators, the
spectral energy of a matricization, and the reference core projection."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import RankError, ShapeError
from repro.tensor import SparseTensor, multi_ttm, truncated_svd
from repro.tensor.random import SeedLike, make_rng
from repro.tensor.svd import MatrixLike


def random_low_rank(
    shape: Sequence[int],
    ranks: Sequence[int],
    noise: float = 0.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """A dense tensor with exact multilinear rank ``ranks`` plus
    optional Gaussian noise — the canonical recovery test input.
    """
    shape = tuple(int(s) for s in shape)
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(shape):
        raise RankError("need one rank per mode")
    for size, rank in zip(shape, ranks):
        if not 1 <= rank <= size:
            raise RankError(f"rank {rank} invalid for mode of size {size}")
    rng = make_rng(seed)
    core = rng.standard_normal(ranks)
    factors = []
    for size, rank in zip(shape, ranks):
        raw = rng.standard_normal((size, rank))
        q, _r = np.linalg.qr(raw)
        factors.append(q[:, :rank])
    tensor = multi_ttm(core, factors)
    if noise > 0:
        tensor = tensor + noise * rng.standard_normal(shape)
    return tensor


def random_sparse(
    shape: Sequence[int],
    density: float,
    seed: SeedLike = None,
    value_scale: float = 1.0,
) -> SparseTensor:
    """A sparse tensor with approximately ``density`` of cells stored.

    Cells are drawn without replacement from the flattened index space;
    values are standard normal times ``value_scale``.
    """
    shape = tuple(int(s) for s in shape)
    if not 0.0 < density <= 1.0:
        raise ShapeError(f"density must be in (0, 1], got {density}")
    rng = make_rng(seed)
    size = int(np.prod(shape))
    nnz = max(1, int(round(density * size)))
    flat = rng.choice(size, size=nnz, replace=False)
    coords = np.stack(np.unravel_index(flat, shape), axis=1)
    values = value_scale * rng.standard_normal(nnz)
    return SparseTensor(shape, coords, values)


def random_orthonormal(
    rows: int, cols: int, seed: SeedLike = None
) -> np.ndarray:
    """A ``rows x cols`` matrix with orthonormal columns."""
    if cols > rows:
        raise ShapeError(
            f"cannot build {cols} orthonormal columns in dimension {rows}"
        )
    rng = make_rng(seed)
    q, _r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q[:, :cols]


def spectral_energy(matrix: MatrixLike, rank: int) -> float:
    """Sum of squared leading ``rank`` singular values.

    Used by tests to check that factor subspaces capture the energy
    they are supposed to.
    """
    _u, s, _vt = truncated_svd(matrix, rank)
    return float(np.sum(s**2))


def materialized_core(
    join_dense: np.ndarray, factors: Sequence[np.ndarray]
) -> np.ndarray:
    """Project a dense join tensor onto the factor subspaces: the
    paper's ``G = J x_1 U^(1)T ... x_N U^(N)T``, the reference for
    :func:`~repro.core.join_tensor.join_core`."""
    return multi_ttm(join_dense, list(factors), transpose=True)


def kolda_unfolding_of_arange(shape: Sequence[int], mode: int) -> np.ndarray:
    """The mode-``mode`` unfolding of ``np.arange(size).reshape(shape)``
    written from Kolda & Bader's definition, one cell at a time: cell
    ``(i_1, ..., i_N)`` lands in row ``i_mode`` and column
    ``sum_{k != mode} i_k * prod_{m < k, m != mode} I_m`` (the first
    remaining mode varies fastest).  Each entry is the cell's C-order
    linear index, so the reference for an index-shuffling check."""
    shape = tuple(int(s) for s in shape)
    columns = int(np.prod(shape)) // shape[mode] if shape[mode] else 0
    expected = np.full((shape[mode], columns), -1, dtype=np.int64)
    for linear, cell in enumerate(np.ndindex(*shape)):
        column, stride = 0, 1
        for k, (index, size) in enumerate(zip(cell, shape)):
            if k != mode:
                column += index * stride
                stride *= size
        expected[cell[mode], column] = linear
    return expected
