"""StudyCatalog: registration, sharding, persistence, invalidation."""

import json

import numpy as np
import pytest

from repro.exceptions import ServingError, StudyNotFoundError
from repro.serving import StudyCatalog
from repro.tensor import SparseTensor

from .conftest import make_sparse


class TestRegistration:
    def test_register_and_lookup(self, catalog):
        assert catalog.keys() == ["alpha", "beta"]
        assert "alpha" in catalog and len(catalog) == 2
        entry = catalog.entry("alpha")
        assert entry.shape == (6, 5, 4)
        assert entry.ranks == (3, 3, 3)

    def test_non_finite_value_rejected(self, catalog):
        """One NaN cell fails at registration, typed, before anything
        is written — not at the first query inside the kernel."""
        tensor = SparseTensor((3, 3, 3), [[0, 0, 0], [1, 1, 1], [2, 2, 2]],
                              [1.0, np.nan, 2.0])
        studies = catalog.path.read_text()
        with pytest.raises(ServingError, match="non-finite"):
            catalog.register("gamma", tensor, ranks=[2, 2, 2])
        assert "gamma" not in catalog
        assert not catalog.shard_dir("gamma").exists()
        assert catalog.path.read_text() == studies

    @pytest.mark.parametrize("bad", ["", "a/b", "a b", "a:b", "../x"])
    def test_invalid_key(self, catalog, bad):
        with pytest.raises(ServingError, match="invalid study key"):
            catalog.register(bad, make_sparse((3, 3, 3)), ranks=[2, 2, 2])

    def test_duplicate_needs_overwrite(self, catalog):
        tensor = make_sparse((6, 5, 4), seed=9)
        with pytest.raises(ServingError, match="already registered"):
            catalog.register("alpha", tensor, ranks=[2, 2, 2])
        entry = catalog.register(
            "alpha", tensor, ranks=[2, 2, 2], overwrite=True
        )
        assert entry.ranks == (2, 2, 2)

    def test_rank_arity_mismatch(self, catalog):
        with pytest.raises(ServingError, match="ranks"):
            catalog.register(
                "gamma", make_sparse((3, 3, 3)), ranks=[2, 2]
            )

    def test_unknown_study_is_typed(self, catalog):
        with pytest.raises(StudyNotFoundError) as excinfo:
            catalog.entry("nope")
        assert excinfo.value.study == "nope"
        with pytest.raises(StudyNotFoundError):
            catalog.store_for("nope")


class TestSharding:
    def test_each_study_gets_its_own_store(self, catalog):
        alpha = catalog.store_for("alpha")
        beta = catalog.store_for("beta")
        assert alpha is not beta
        assert alpha.directory != beta.directory
        assert alpha.directory == catalog.shard_dir("alpha")
        # both shards have their own catalog file and block files
        for store in (alpha, beta):
            assert (store.directory / "catalog.json").exists()
            assert store.catalog.get("ensemble").nnz > 0

    def test_store_instance_is_cached(self, catalog):
        assert catalog.store_for("alpha") is catalog.store_for("alpha")


class TestPersistence:
    def test_reload_from_disk(self, catalog):
        reloaded = StudyCatalog(catalog.root)
        assert reloaded.keys() == catalog.keys()
        assert reloaded.entry("beta") == catalog.entry("beta")
        # and the reloaded catalog actually serves
        engine = reloaded.engine("alpha")
        assert engine.shape == (6, 5, 4)

    def test_catalog_with_method_field_still_serves(self, catalog):
        """A ``studies.json`` written when entries still named a
        decomposition method loads, and its studies serve."""
        raw = json.loads(catalog.path.read_text())
        raw["studies"]["alpha"]["method"] = "hosvd"
        raw["studies"]["beta"]["method"] = "gram"
        catalog.path.write_text(json.dumps(raw))
        reloaded = StudyCatalog(catalog.root)
        assert reloaded.entry("alpha") == catalog.entry("alpha")
        for key in ("alpha", "beta"):
            engine = reloaded.engine(key)
            assert np.isfinite(engine.point((0,) * len(engine.shape)))

    def test_corrupt_studies_file(self, catalog):
        catalog.path.write_text("{nope")
        with pytest.raises(ServingError, match="cannot read"):
            StudyCatalog(catalog.root)

    def test_unregister(self, catalog):
        entry = catalog.unregister("alpha")
        assert entry.key == "alpha"
        assert "alpha" not in catalog
        assert "alpha" not in StudyCatalog(catalog.root)
        with pytest.raises(StudyNotFoundError):
            catalog.entry("alpha")


class TestBundleLifecycle:
    def test_engine_serves_from_hot_cache(self, catalog):
        catalog.engine("alpha")
        before = catalog.hot_factors.stats.misses
        catalog.engine("alpha")
        assert catalog.hot_factors.stats.misses == before
        assert catalog.hot_factors.stats.hits >= 1

    def test_reregistration_invalidates_stale_factors(self, catalog):
        index = (0, 0, 0)
        old_value = catalog.engine("alpha").point(index)
        tensor = make_sparse((6, 5, 4), seed=77)
        tensor.values[:] = tensor.values + 100.0
        catalog.register(
            "alpha", tensor, ranks=[3, 3, 3], overwrite=True
        )
        new_value = catalog.engine("alpha").point(index)
        # fresh data must flow through immediately — a stale hot
        # bundle would still answer with the old factors
        assert new_value != pytest.approx(old_value, abs=1e-6)
        dense = np.zeros(tensor.shape)
        dense[tuple(tensor.coords.T)] = tensor.values
        assert abs(new_value) > 1.0  # reflects the +100 shift
