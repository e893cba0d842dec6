"""StudyCatalog: registration, sharding, persistence, invalidation."""

import json

import numpy as np
import pytest

from repro.exceptions import QueryError, ServingError, StudyNotFoundError
from repro.observability import Tracer, use_tracer
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.serving import FactorEngine, StudyCatalog
from repro.tensor import SparseTensor, hosvd

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

    def test_store_catalog_without_digest_still_serves(self, catalog):
        """A shard ``catalog.json`` written before tensors recorded a
        content digest loads, and its study serves point and top-k."""
        path = catalog.store_for("alpha").catalog.path
        raw = json.loads(path.read_text())
        for record in raw["tensors"].values():
            del record["digest"]
        path.write_text(json.dumps(raw))
        reloaded = StudyCatalog(catalog.root)
        store = reloaded.store_for("alpha")
        assert store.catalog.get("ensemble").digest is None
        engine = reloaded.engine("alpha")
        assert np.isfinite(engine.point((0, 0, 0)))
        residuals = [
            r for *_rest, r in engine.topk_anomalies(store, "ensemble", 3)
        ]
        assert len(residuals) == 3
        assert residuals == sorted(residuals, reverse=True)

    def test_corrupt_studies_file(self, catalog):
        catalog.path.write_text("{nope")
        with pytest.raises(ServingError, match="cannot read"):
            StudyCatalog(catalog.root)

    def test_unregister_evicts_hot_bundle(self, catalog):
        catalog.engine("alpha")
        assert len(catalog.hot_factors) == 1
        catalog.unregister("alpha")
        assert len(catalog.hot_factors) == 0
        assert catalog.hot_factors.nbytes == 0

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


class TestReregisterSameSparsity:
    """Re-registering new values on the same coordinates (same shape,
    nnz and block layout) must serve the new values: the bundle
    address covers the stored values' content digest."""

    @staticmethod
    def _new_values(catalog):
        old = catalog.store_for("alpha").get("ensemble")
        values = old.values.copy()
        values[0] = 9.99
        return SparseTensor(old.shape, old.coords, values)

    def _check_serves(self, catalog, tensor):
        expected = hosvd(tensor, [3, 3, 3])
        engine = catalog.engine("alpha")
        index = tuple(int(i) for i in tensor.coords[0])
        assert engine.point(index) == pytest.approx(
            float(expected.reconstruct()[index]), abs=1e-8
        )
        top = engine.topk_anomalies(
            catalog.store_for("alpha"), "ensemble", tensor.nnz
        )
        served = {idx: stored for idx, stored, _p, _r in top}
        assert served[index] == 9.99

    def test_same_catalog_serves_new_values(self, catalog):
        catalog.engine("alpha")  # bundle in both cache tiers
        tensor = self._new_values(catalog)
        catalog.register("alpha", tensor, ranks=[3, 3, 3], overwrite=True)
        self._check_serves(catalog, tensor)

    def test_fresh_catalog_serves_new_values(self, catalog):
        catalog.engine("alpha")  # bundle persisted in the disk tier
        tensor = self._new_values(catalog)
        catalog.register("alpha", tensor, ranks=[3, 3, 3], overwrite=True)
        self._check_serves(StudyCatalog(catalog.root), tensor)


class TestRankedTopK:
    """Top-k on a catalog engine answers from the bundle's ranking."""

    def test_topk_reads_no_block(self, catalog):
        registry = MetricsRegistry()
        with use_metrics(registry):
            engine = catalog.engine("alpha")
            store = catalog.store_for("alpha")
            reads = registry.counter("storage.block_reads").value
            assert reads > 0  # the bundle read every block once
            full = engine.topk_anomalies(store, "ensemble", 5)
            on_slice = engine.topk_anomalies(
                store, "ensemble", 3, mode=0, index=2
            )
            assert registry.counter("storage.block_reads").value == reads
        assert len(full) == 5
        assert on_slice and all(idx[0] == 2 for idx, *_rest in on_slice)

    def test_fresh_catalog_reuses_persisted_ranking(self, catalog):
        store = catalog.store_for("alpha")
        first = catalog.engine("alpha").topk_anomalies(store, "ensemble", 5)
        registry = MetricsRegistry()
        with use_metrics(registry):
            fresh = StudyCatalog(catalog.root)
            second = fresh.engine("alpha").topk_anomalies(
                fresh.store_for("alpha"), "ensemble", 5
            )
            assert registry.counter("serving.bundle_disk_hits").value == 1
            assert registry.counter("serving.bundles_computed").value == 0
            assert registry.counter("storage.block_reads").value == 0
        assert second == first

    @pytest.mark.parametrize("mode, index", [(3, 0), (0, 6), (-1, 0)])
    def test_bad_slice_is_typed(self, catalog, mode, index):
        engine = catalog.engine("alpha")
        store = catalog.store_for("alpha")
        for source in (engine, FactorEngine(engine.tucker)):
            with pytest.raises(QueryError, match="out of range"):
                source.topk_anomalies(
                    store, "ensemble", 2, mode=mode, index=index
                )

    def test_span_records_source(self, catalog):
        engine = catalog.engine("alpha")
        store = catalog.store_for("alpha")
        bare = FactorEngine(engine.tucker, study="alpha")
        with use_tracer(Tracer()) as tracer:
            engine.topk_anomalies(store, "ensemble", 2)
            bare.topk_anomalies(store, "ensemble", 2)
        sources = [s.attrs["source"] for s in tracer.iter_spans()
                   if s.name == "serving-topk"]
        assert sources == ["bundle", "store"]
