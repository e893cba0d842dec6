"""Blocked layout geometry and split/assemble roundtrip."""

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.storage import (
    BlockedLayout,
    assemble_from_blocks,
    split_into_blocks,
)

from ..generators import random_sparse


class TestBlockedLayout:
    def test_grid_shape_rounds_up(self):
        layout = BlockedLayout((9, 7), (4, 4))
        assert layout.grid_shape == (3, 2)
        assert layout.n_blocks == 6

    def test_block_of(self):
        layout = BlockedLayout((9, 7), (4, 4))
        ids = layout.block_of(np.array([[0, 0], [4, 3], [8, 6]]))
        assert ids.tolist() == [[0, 0], [1, 0], [2, 1]]

    def test_ragged_edge_extent(self):
        layout = BlockedLayout((9, 7), (4, 4))
        assert layout.block_extent((2, 1)) == (1, 3)
        assert layout.block_extent((0, 0)) == (4, 4)

    def test_blocks_touching_slice(self):
        layout = BlockedLayout((9, 7), (4, 4))
        touching = list(layout.blocks_touching_slice(0, 5))
        assert all(b[0] == 1 for b in touching)
        assert len(touching) == 2

    def test_rejects_bad_slice(self):
        layout = BlockedLayout((9, 7), (4, 4))
        with pytest.raises(StorageError):
            list(layout.blocks_touching_slice(0, 9))
        with pytest.raises(StorageError):
            list(layout.blocks_touching_slice(5, 0))

    def test_rejects_bad_block_shape(self):
        with pytest.raises(StorageError):
            BlockedLayout((4, 4), (4,))
        with pytest.raises(StorageError):
            BlockedLayout((4, 4), (0, 4))


class TestSplitAssemble:
    def test_roundtrip(self):
        tensor = random_sparse((9, 7, 5), 0.2, seed=1)
        layout = BlockedLayout(tensor.shape, (4, 3, 2))
        blocks = split_into_blocks(tensor, layout)
        assert assemble_from_blocks(layout, blocks) == tensor

    def test_local_coordinates(self):
        tensor = random_sparse((8, 8), 0.3, seed=2)
        layout = BlockedLayout((8, 8), (4, 4))
        blocks = split_into_blocks(tensor, layout)
        for block_id, block in blocks.items():
            extent = layout.block_extent(block_id)
            assert block.shape == extent
            assert (block.coords < np.asarray(extent)).all()

    def test_empty_tensor(self):
        from repro.tensor import SparseTensor

        layout = BlockedLayout((4, 4), (2, 2))
        assert split_into_blocks(SparseTensor((4, 4)), layout) == {}

    def test_values_preserved(self):
        tensor = random_sparse((6, 6), 0.5, seed=3)
        layout = BlockedLayout((6, 6), (5, 5))
        blocks = split_into_blocks(tensor, layout)
        total_nnz = sum(b.nnz for b in blocks.values())
        assert total_nnz == tensor.nnz

    def test_rejects_shape_mismatch(self):
        tensor = random_sparse((6, 6), 0.5, seed=3)
        layout = BlockedLayout((5, 5), (2, 2))
        with pytest.raises(StorageError):
            split_into_blocks(tensor, layout)
