"""Tucker model persistence."""

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.storage import load_tucker, save_tucker
from repro.tensor import hosvd

from ..generators import random_low_rank


@pytest.fixture()
def model():
    tensor = random_low_rank((6, 7, 5), (2, 3, 2), seed=0)
    return hosvd(tensor, (2, 3, 2))


class TestSaveLoad:
    def test_roundtrip(self, tmp_path, model):
        path = save_tucker(tmp_path / "model.npz", model)
        loaded, meta = load_tucker(path)
        assert np.allclose(loaded.reconstruct(), model.reconstruct())
        assert meta == {}

    def test_metadata_roundtrip(self, tmp_path, model):
        path = save_tucker(
            tmp_path / "model", model, metadata={"rank": [2, 3, 2]}
        )
        assert path.suffix == ".npz"
        _loaded, meta = load_tucker(path)
        assert meta == {"rank": [2, 3, 2]}

    def test_rejects_unserializable_metadata(self, tmp_path, model):
        with pytest.raises(StorageError):
            save_tucker(tmp_path / "m", model, metadata={"x": object()})

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_tucker(tmp_path / "nope.npz")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not a zip")
        with pytest.raises(StorageError):
            load_tucker(path)

    def test_factor_order_preserved(self, tmp_path, model):
        path = save_tucker(tmp_path / "model.npz", model)
        loaded, _meta = load_tucker(path)
        for original, restored in zip(model.factors, loaded.factors):
            assert np.allclose(original, restored)
