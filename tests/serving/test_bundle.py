"""Factor bundles: fingerprints, the disk tier, and admission control."""

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.runtime import ResultCache
from repro.serving import (
    FactorBundle,
    FactorEngine,
    HotFactorCache,
    bundle_fingerprint,
    compute_bundle,
    load_bundle,
)
from repro.storage import BlockTensorStore
from repro.tensor import hosvd

from .conftest import make_sparse


@pytest.fixture()
def stored(tmp_path):
    tensor = make_sparse((6, 5, 4), seed=4)
    store = BlockTensorStore(tmp_path / "store")
    store.put("t", tensor)
    return store, store.catalog.get("t")


class TestFingerprint:
    def test_stable(self, stored):
        store, entry = stored
        a = bundle_fingerprint("s", entry, (3, 3, 3))
        b = bundle_fingerprint("s", entry, (3, 3, 3))
        assert a == b

    def test_varies_with_request(self, stored):
        _store, entry = stored
        base = bundle_fingerprint("s", entry, (3, 3, 3))
        assert bundle_fingerprint("s2", entry, (3, 3, 3)) != base
        assert bundle_fingerprint("s", entry, (2, 2, 2)) != base

    def test_varies_with_stored_values(self, stored):
        store, entry = stored
        tensor = store.get("t")
        tensor.values[0] += 1.0
        store.put("t", tensor, overwrite=True)
        changed = store.catalog.get("t")
        assert (changed.shape, changed.nnz, changed.block_ids) == (
            entry.shape, entry.nnz, entry.block_ids
        )
        assert changed.digest != entry.digest
        assert bundle_fingerprint("s", changed, (3, 3, 3)) != (
            bundle_fingerprint("s", entry, (3, 3, 3))
        )


class TestComputeAndLoad:
    def test_compute_clips_ranks(self, stored):
        store, entry = stored
        bundle = compute_bundle("s", store, entry, (9, 9, 9))
        assert bundle.tucker.shape == entry.shape
        assert bundle.tucker.rank == entry.shape  # clipped to extents
        assert bundle.nbytes > 0

    def test_nbytes_counts_ranking(self, stored):
        store, entry = stored
        bundle = compute_bundle("s", store, entry, (3, 3, 3))
        ranking = bundle.ranking
        assert ranking.coords.shape == (entry.nnz, 3)
        assert ranking.nbytes == sum(
            a.nbytes for a in (ranking.coords, ranking.stored,
                               ranking.predicted, ranking.residual)
        )
        assert bundle.nbytes == (
            bundle.tucker.core.nbytes
            + sum(f.nbytes for f in bundle.tucker.factors)
            + ranking.nbytes
        )

    def test_ranking_is_sorted_residuals(self, stored):
        store, entry = stored
        ranking = compute_bundle("s", store, entry, (2, 2, 2)).ranking
        assert np.all(np.diff(ranking.residual) <= 0)
        assert np.allclose(
            ranking.residual, np.abs(ranking.stored - ranking.predicted)
        )

    def test_load_without_cache_recomputes(self, stored):
        store, entry = stored
        bundle = load_bundle("s", store, entry, (3, 3, 3), result_cache=None)
        assert isinstance(bundle, FactorBundle)

    def test_load_roundtrips_through_disk(self, stored, tmp_path):
        store, entry = stored
        cache = ResultCache(max_entries=1, directory=tmp_path / "cache")
        registry = MetricsRegistry()
        with use_metrics(registry):
            first = load_bundle(
                "s", store, entry, (3, 3, 3), result_cache=cache
            )
            second = load_bundle(
                "s", store, entry, (3, 3, 3), result_cache=cache
            )
        assert registry.counter("serving.bundles_computed").value == 1
        assert registry.counter("serving.bundle_disk_hits").value == 1
        assert np.allclose(first.tucker.core, second.tucker.core)
        for f1, f2 in zip(first.tucker.factors, second.tucker.factors):
            assert np.allclose(f1, f2)
        for name in ("coords", "stored", "predicted", "residual"):
            assert np.array_equal(
                getattr(first.ranking, name), getattr(second.ranking, name)
            )

    def test_misaligned_ranking_heals_by_recompute(self, stored, tmp_path):
        store, entry = stored
        cache = ResultCache(max_entries=1, directory=tmp_path / "cache")
        good = compute_bundle("s", store, entry, (3, 3, 3))
        cache.put(bundle_fingerprint("s", entry, (3, 3, 3)), {
            "core": good.tucker.core,
            "factors": list(good.tucker.factors),
            "ranking": {
                "coords": good.ranking.coords,
                "stored": good.ranking.stored[:-1],
                "predicted": good.ranking.predicted,
                "residual": good.ranking.residual,
            },
        })
        registry = MetricsRegistry()
        with use_metrics(registry):
            load_bundle("s", store, entry, (3, 3, 3), result_cache=cache)
        assert registry.counter("serving.bundle_decode_errors").value == 1
        assert registry.counter("serving.bundles_computed").value == 1

    def test_undecodable_entry_heals_by_recompute(self, stored, tmp_path):
        """A structurally valid cache entry that is not a bundle is
        treated as a miss, not served."""
        store, entry = stored
        cache = ResultCache(max_entries=1, directory=tmp_path / "cache")
        key = bundle_fingerprint("s", entry, (3, 3, 3))
        cache.put(key, {"core": np.ones((2, 2)), "factors": [np.ones(3)]})
        registry = MetricsRegistry()
        with use_metrics(registry):
            bundle = load_bundle(
                "s", store, entry, (3, 3, 3), result_cache=cache
            )
        assert registry.counter("serving.bundle_decode_errors").value == 1
        assert registry.counter("serving.bundles_computed").value == 1
        assert bundle.tucker.shape == entry.shape


def _bundle(study: str, nbytes_target: int = 0) -> FactorBundle:
    side = max(2, int(np.sqrt(max(nbytes_target, 64) / 8 / 2)))
    dense = np.random.default_rng(len(study)).standard_normal((side, side))
    tucker = hosvd(dense, [2, 2])
    ranking = FactorEngine(tucker).rank_residuals(
        np.array(list(np.ndindex(dense.shape))), dense.ravel()
    )
    return FactorBundle(
        study=study, tucker=tucker, ranking=ranking, fingerprint=study
    )


class TestHotFactorCache:
    def test_admit_immediately_then_hit(self):
        cache = HotFactorCache(max_entries=4)
        calls = []

        def loader():
            calls.append(1)
            return _bundle("a")

        cache.get("a", loader)
        cache.get("a", loader)
        assert len(calls) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert "a" in cache

    def test_admit_after_two_requests(self):
        cache = HotFactorCache(max_entries=4, admit_after=2)
        calls = []

        def loader():
            calls.append(1)
            return _bundle("a")

        cache.get("a", loader)            # miss, rejected (1 request)
        assert "a" not in cache
        assert cache.stats.rejected == 1
        cache.get("a", loader)            # miss, admitted (2 requests)
        assert "a" in cache
        cache.get("a", loader)            # hit
        assert len(calls) == 2
        assert cache.stats.hits == 1

    def test_lru_eviction_on_entry_limit(self):
        cache = HotFactorCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.get(key, lambda key=key: _bundle(key))
        assert cache.stats.evictions == 1
        assert "a" not in cache and "b" in cache and "c" in cache
        # touching "b" makes "c" the LRU victim
        cache.get("b", lambda: _bundle("b"))
        cache.get("d", lambda: _bundle("d"))
        assert "c" not in cache and "b" in cache

    def test_byte_budget_eviction(self):
        probe = _bundle("probe", 4096)
        cache = HotFactorCache(
            max_entries=64,
            max_bytes=int(probe.nbytes * 2.5),
            admission_fraction=1.0,
        )
        for key in ("a", "b", "c"):
            cache.get(key, lambda key=key: _bundle(key, 4096))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.nbytes <= cache.max_bytes

    def test_oversized_bundle_never_admitted(self):
        probe = _bundle("big", 8192)
        cache = HotFactorCache(
            max_bytes=probe.nbytes, admission_fraction=0.5
        )
        cache.get("big", lambda: _bundle("big", 8192))
        assert "big" not in cache
        assert cache.stats.rejected == 1

    def test_invalidate(self):
        cache = HotFactorCache()
        cache.get("a", lambda: _bundle("a"))
        assert "a" in cache
        cache.invalidate("a")
        assert "a" not in cache
        assert cache.nbytes == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_entries": 0},
            {"admit_after": 0},
            {"admission_fraction": 0.0},
            {"admission_fraction": 1.5},
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ServingError):
            HotFactorCache(**kwargs)
