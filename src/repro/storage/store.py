"""The block tensor store: persist sparse ensemble tensors on disk.

A TensorDB-flavoured substrate (paper Section II-B): tensors are tiled
into hyper-blocks (:mod:`repro.storage.blocks`), each non-empty block
is one ``.npz`` file, and a JSON catalog tracks geometry.  Queries
that need a slice or a single block read only the files they touch —
the property that made in-database tensor decomposition practical in
the systems the paper cites.

Blocks are sized by stored cells: the default tiling splits a mode
only while every tile would still average :data:`MIN_BLOCK_CELLS`
stored cells, so a sparse sampled study of a few thousand cells is one
block file rather than a hundred near-empty ones.  Per-file overhead
(zip open, header parse, checksum) dominates a tiny block's cost, the
reason TuckerMPI-style block I/O moves a few large chunks.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..exceptions import BlockCorruptionError, StorageError
from ..faults.injector import get_injector
from ..observability import get_metrics, span as _span
from ..tensor.sparse import SparseTensor
from .blocks import BlockedLayout, BlockId, assemble_from_blocks, split_into_blocks
from .catalog import Catalog, TensorEntry

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")

#: The fewest stored cells a default tile averages; below it a mode is
#: not split further.
MIN_BLOCK_CELLS = 4096


def _default_block_shape(shape: Tuple[int, ...], nnz: int) -> Tuple[int, ...]:
    """Tile extents sized by the stored cell count.

    Starts from one tile and, leading modes first, doubles a mode's
    tile count (at most four per mode) only while every tile would
    still average :data:`MIN_BLOCK_CELLS` stored cells.
    """

    def extents(counts):
        return tuple(max(1, -(-s // t)) for s, t in zip(shape, counts))

    tiles = [1] * len(shape)
    for _ in range(2):  # two doublings: at most four tiles per mode
        for mode in range(len(shape)):
            trial = list(tiles)
            trial[mode] *= 2
            grid = BlockedLayout(shape, extents(trial)).n_blocks
            if nnz >= grid * MIN_BLOCK_CELLS:
                tiles = trial
    return extents(tiles)


def _block_digest(coords, values, shape) -> str:
    """Content checksum over a block's payload arrays.  Stored inside
    each block ``.npz`` so a flipped bit on disk is detected at read
    time instead of silently feeding garbage into a decomposition."""
    digest = hashlib.sha256()
    for array in (
        np.ascontiguousarray(coords),
        np.ascontiguousarray(values),
        np.asarray(shape, dtype=np.int64),
    ):
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class BlockTensorStore:
    """A directory-backed store of blocked sparse tensors."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.catalog = Catalog(self.directory)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_PATTERN.match(name):
            raise StorageError(
                f"invalid tensor name {name!r}; use letters, digits, "
                "'_', '-', '.'"
            )
        return name

    def _tensor_dir(self, name: str) -> Path:
        return self.directory / self._check_name(name)

    def _block_path(self, name: str, block_id: BlockId) -> Path:
        suffix = "_".join(str(int(i)) for i in block_id)
        return self._tensor_dir(name) / f"block_{suffix}.npz"

    # ------------------------------------------------------------------
    # write
    # ------------------------------------------------------------------
    def put(
        self,
        name: str,
        tensor: SparseTensor,
        block_shape: Optional[Tuple[int, ...]] = None,
        overwrite: bool = False,
    ) -> TensorEntry:
        """Store a tensor under ``name``.

        ``block_shape`` defaults to blocks sized by stored cells: each
        mode is split in (at most) four tiles, and only while every
        tile still averages :data:`MIN_BLOCK_CELLS` stored cells.
        Refuses to overwrite unless asked, and refuses non-finite
        values before writing anything.
        """
        self._check_name(name)
        if name in self.catalog and not overwrite:
            raise StorageError(
                f"tensor {name!r} already stored (pass overwrite=True)"
            )
        if not np.isfinite(tensor.values).all():
            raise StorageError(f"tensor {name!r} has non-finite values")
        if block_shape is None:
            block_shape = _default_block_shape(tensor.shape, tensor.nnz)
        layout = BlockedLayout(tensor.shape, block_shape)
        with _span(
            "store-put", "storage", tensor=name, nnz=tensor.nnz,
            shape=tensor.shape,
        ) as sp:
            blocks = split_into_blocks(tensor, layout)
            tensor_dir = self._tensor_dir(name)
            if tensor_dir.exists():
                for stale in tensor_dir.glob("block_*.npz"):
                    stale.unlink()
            tensor_dir.mkdir(parents=True, exist_ok=True)
            metrics = get_metrics()
            bytes_written = 0
            content = hashlib.sha256()
            for block_id, block in sorted(blocks.items()):
                path = self._block_path(name, block_id)
                checksum = _block_digest(block.coords, block.values, block.shape)
                content.update(f"{block_id}:{checksum};".encode())
                np.savez_compressed(
                    path,
                    coords=block.coords,
                    values=block.values,
                    shape=np.asarray(block.shape, dtype=np.int64),
                    checksum=np.asarray(checksum),
                )
                block_bytes = path.stat().st_size
                bytes_written += block_bytes
                metrics.histogram("storage.block_bytes").observe(block_bytes)
            entry = TensorEntry(
                name=name,
                shape=tensor.shape,
                block_shape=layout.block_shape,
                nnz=tensor.nnz,
                n_blocks=len(blocks),
                block_ids=sorted(blocks),
                digest=content.hexdigest(),
            )
            self.catalog.put(entry)
            sp.set(n_blocks=len(blocks), bytes_written=bytes_written)
            metrics.counter("storage.puts").inc()
            metrics.counter("storage.blocks_written").inc(len(blocks))
            metrics.counter("storage.bytes_serialized").inc(bytes_written)
        return entry

    # ------------------------------------------------------------------
    # read
    # ------------------------------------------------------------------
    def layout(self, name: str) -> BlockedLayout:
        entry = self.catalog.get(name)
        return BlockedLayout(entry.shape, entry.block_shape)

    def get_block(self, name: str, block_id: BlockId) -> SparseTensor:
        """Load one block (empty tensor if the block has no cells).

        Blocks the catalog says exist must be present and pass their
        checksum; a missing file, an unreadable ``.npz``, or a payload
        that no longer matches its stored digest raises
        :class:`~repro.exceptions.BlockCorruptionError` — never a
        silently-empty tensor feeding garbage downstream.
        """
        entry = self.catalog.get(name)
        layout = BlockedLayout(entry.shape, entry.block_shape)
        block_id = tuple(int(i) for i in block_id)
        return self._read_block(
            entry, layout, block_id,
            catalogued=block_id in entry.block_ids,
        )

    def _read_block(
        self,
        entry: TensorEntry,
        layout: BlockedLayout,
        block_id: BlockId,
        catalogued: bool = True,
    ) -> SparseTensor:
        """The block-read body behind :meth:`get_block`.

        Takes the already-resolved catalog entry and layout so the
        multi-block request paths (``get`` / ``iter_blocks`` /
        ``slice_query``) resolve them *once per request* instead of
        once per block — the hot-path contract the
        ``storage.catalog_lookups`` micro-benchmark guard pins.  Those
        paths only read catalogued blocks; ``catalogued=False`` (a
        :meth:`get_block` outside the catalog) makes a missing file an
        empty block instead of corruption.
        """
        name = entry.name
        grid = layout.grid_shape
        if len(block_id) != len(grid) or any(
            not 0 <= b < g for b, g in zip(block_id, grid)
        ):
            raise StorageError(
                f"block id {block_id} outside grid {grid} of {name!r}"
            )
        path = self._block_path(name, block_id)
        metrics = get_metrics()
        metrics.counter("storage.block_reads").inc()
        injector = get_injector()
        if injector.enabled:
            # raise/crash/delay fire here; a "corrupt" decision flips
            # bytes in the block file so the real checksum path below
            # is what detects it.
            injector.fire(
                "storage.block-read", f"{name}/{block_id}", path=path
            )
        if not path.exists():
            if catalogued:
                metrics.counter("storage.block_corruptions").inc()
                raise BlockCorruptionError(
                    name, block_id, "catalogued block file is missing"
                )
            return SparseTensor(layout.block_extent(block_id))
        metrics.counter("storage.bytes_deserialized").inc(path.stat().st_size)
        try:
            with np.load(path) as data:
                shape = tuple(int(s) for s in data["shape"])
                coords = data["coords"]
                values = data["values"]
                if "checksum" in data.files:
                    expected = str(data["checksum"])
                    actual = _block_digest(coords, values, shape)
                    if actual != expected:
                        raise BlockCorruptionError(
                            name, block_id, "checksum mismatch"
                        )
            return SparseTensor(shape, coords, values)
        except BlockCorruptionError:
            metrics.counter("storage.block_corruptions").inc()
            raise
        except Exception as exc:
            metrics.counter("storage.block_corruptions").inc()
            raise BlockCorruptionError(
                name, block_id, f"unreadable block file: {exc}"
            ) from exc

    def iter_blocks(self, name: str) -> Iterator[Tuple[BlockId, SparseTensor]]:
        entry = self.catalog.get(name)
        layout = BlockedLayout(entry.shape, entry.block_shape)
        for block_id in entry.block_ids:
            yield block_id, self._read_block(entry, layout, block_id)

    def get(self, name: str) -> SparseTensor:
        """Load and reassemble the full tensor."""
        with _span("store-get", "storage", tensor=name) as sp:
            entry = self.catalog.get(name)
            layout = BlockedLayout(entry.shape, entry.block_shape)
            blocks: Dict[BlockId, SparseTensor] = {
                block_id: self._read_block(entry, layout, block_id)
                for block_id in entry.block_ids
            }
            tensor = assemble_from_blocks(layout, blocks)
            sp.set(n_blocks=len(blocks), nnz=tensor.nnz)
            get_metrics().counter("storage.gets").inc()
            return tensor

    def slice_query(self, name: str, mode: int, index: int) -> SparseTensor:
        """Cells on the hyperplane ``mode = index``, reading only the
        blocks that intersect it — the blocked layout's payoff."""
        with _span(
            "store-slice-query", "storage", tensor=name, mode=mode, index=index,
        ) as sp:
            entry = self.catalog.get(name)
            layout = BlockedLayout(entry.shape, entry.block_shape)
            stored = set(entry.block_ids)
            coords_parts, values_parts = [], []
            blocks_read = 0
            for block_id in layout.blocks_touching_slice(mode, index):
                if block_id not in stored:
                    continue
                block = self._read_block(entry, layout, block_id)
                blocks_read += 1
                origin = layout.block_origin(block_id)
                local_index = index - origin[mode]
                mask = block.coords[:, mode] == local_index
                if mask.any():
                    coords_parts.append(block.coords[mask] + origin[None, :])
                    values_parts.append(block.values[mask])
            sp.set(blocks_read=blocks_read)
            get_metrics().counter("storage.slice_queries").inc()
            if not coords_parts:
                return SparseTensor(entry.shape)
            return SparseTensor(
                entry.shape,
                np.vstack(coords_parts),
                np.concatenate(values_parts),
            )

    # ------------------------------------------------------------------
    # manage
    # ------------------------------------------------------------------
    def delete(self, name: str) -> None:
        entry = self.catalog.remove(name)
        tensor_dir = self._tensor_dir(name)
        for block_id in entry.block_ids:
            path = self._block_path(name, block_id)
            if path.exists():
                path.unlink()
        if tensor_dir.exists() and not any(tensor_dir.iterdir()):
            tensor_dir.rmdir()

    def names(self):
        return self.catalog.names()
