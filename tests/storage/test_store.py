"""BlockTensorStore: persistence, queries, catalog consistency."""

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.storage import BlockTensorStore
from repro.storage.store import MIN_BLOCK_CELLS
from repro.tensor import SparseTensor

from ..generators import random_sparse


@pytest.fixture()
def store(tmp_path):
    return BlockTensorStore(tmp_path / "tensors")


@pytest.fixture()
def tensor():
    return random_sparse((9, 7, 5), 0.15, seed=4)


class TestPutGet:
    def test_roundtrip(self, store, tensor):
        store.put("ens", tensor, block_shape=(4, 4, 4))
        assert store.get("ens") == tensor

    def test_default_block_shape(self, store, tensor):
        entry = store.put("ens", tensor)
        assert entry.n_blocks >= 1
        assert store.get("ens") == tensor

    def test_no_silent_overwrite(self, store, tensor):
        store.put("ens", tensor)
        with pytest.raises(StorageError):
            store.put("ens", tensor)
        store.put("ens", tensor, overwrite=True)  # explicit is fine

    def test_overwrite_removes_stale_blocks(self, store):
        big = random_sparse((8, 8), 0.9, seed=1)
        small = SparseTensor((8, 8), [[0, 0]], [1.0])
        store.put("t", big, block_shape=(2, 2))
        store.put("t", small, block_shape=(8, 8), overwrite=True)
        assert store.get("t") == small

    def test_non_finite_value_rejected(self, store, tensor):
        tensor.values[0] = np.nan
        with pytest.raises(StorageError, match="non-finite"):
            store.put("ens", tensor)
        assert "ens" not in store.catalog
        assert not (store.directory / "ens").exists()

    def test_invalid_name(self, store, tensor):
        with pytest.raises(StorageError):
            store.put("../escape", tensor)

    def test_unknown_name(self, store):
        with pytest.raises(StorageError):
            store.get("nope")

    def test_names(self, store, tensor):
        store.put("b", tensor)
        store.put("a", tensor)
        assert store.names() == ["a", "b"]


class TestDefaultTiling:
    """Default blocks are sized by stored cells, not by shape."""

    def test_sampled_study_is_one_block(self, store):
        sampled = random_sparse((8,) * 5, 0.03, seed=0)
        assert 900 <= sampled.nnz <= 1100
        entry = store.put("ens", sampled)
        assert entry.n_blocks == 1
        assert entry.block_shape == (8,) * 5
        assert store.get("ens") == sampled

    def test_dense_study_blocks_average_min_cells(self, store):
        dense = random_sparse((8,) * 5, 0.3, seed=0)
        assert dense.nnz == 9830
        entry = store.put("ens", dense)
        assert 1 < entry.n_blocks <= 4
        assert dense.nnz / store.layout("ens").n_blocks >= MIN_BLOCK_CELLS
        assert store.get("ens") == dense

    def test_large_tensor_caps_at_four_tiles_per_mode(self, store):
        # 90000 cells would afford 21 tiles of MIN_BLOCK_CELLS each
        full = SparseTensor.from_dense(np.ones((300, 300)))
        assert full.nnz >= 20 * MIN_BLOCK_CELLS
        entry = store.put("ens", full)
        assert store.layout("ens").grid_shape == (4, 4)
        assert entry.n_blocks == 16
        assert store.get("ens") == full

    @pytest.mark.parametrize("block_shape", [(2,) * 5, (4, 8, 8, 8, 8)])
    def test_explicit_block_shape_keeps_its_tiling(self, store, block_shape):
        sampled = random_sparse((8,) * 5, 0.03, seed=0)
        entry = store.put("ens", sampled, block_shape=block_shape)
        tiles = sampled.coords // np.asarray(block_shape)
        assert entry.block_shape == block_shape
        assert entry.n_blocks == len(np.unique(tiles, axis=0))
        assert store.get("ens") == sampled


class TestBlockAccess:
    def test_get_block_local_shape(self, store, tensor):
        store.put("ens", tensor, block_shape=(4, 4, 4))
        layout = store.layout("ens")
        block = store.get_block("ens", (0, 0, 0))
        assert block.shape == layout.block_extent((0, 0, 0))

    def test_empty_block_returns_empty_tensor(self, store):
        sparse = SparseTensor((8, 8), [[0, 0]], [1.0])
        store.put("t", sparse, block_shape=(4, 4))
        assert store.get_block("t", (1, 1)).nnz == 0

    def test_rejects_out_of_grid(self, store, tensor):
        store.put("ens", tensor, block_shape=(4, 4, 4))
        with pytest.raises(StorageError):
            store.get_block("ens", (9, 0, 0))

    def test_iter_blocks_covers_nnz(self, store, tensor):
        store.put("ens", tensor, block_shape=(4, 4, 4))
        total = sum(block.nnz for _id, block in store.iter_blocks("ens"))
        assert total == tensor.nnz


class TestSliceQuery:
    def test_matches_dense_slice(self, store, tensor):
        store.put("ens", tensor, block_shape=(4, 3, 2))
        dense = tensor.to_dense()
        for mode, index in [(0, 3), (1, 6), (2, 0)]:
            result = store.slice_query("ens", mode, index)
            expected = np.zeros_like(dense)
            slicer = [slice(None)] * 3
            slicer[mode] = index
            expected[tuple(slicer)] = dense[tuple(slicer)]
            assert np.allclose(result.to_dense(), expected)


class TestDelete:
    def test_delete_removes_everything(self, store, tensor):
        store.put("ens", tensor)
        store.delete("ens")
        assert store.names() == []
        with pytest.raises(StorageError):
            store.get("ens")

    def test_catalog_survives_reopen(self, tmp_path, tensor):
        path = tmp_path / "tensors"
        BlockTensorStore(path).put("ens", tensor, block_shape=(4, 4, 4))
        reopened = BlockTensorStore(path)
        assert reopened.get("ens") == tensor
