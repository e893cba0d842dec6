"""Factor bundles: computing one from a store, and admission control."""

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.serving import (
    FactorBundle,
    FactorEngine,
    HotFactorCache,
    compute_bundle,
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

    def test_factors_are_dense_hosvd_of_stored_ensemble(self, stored):
        """The bundle is exactly ``hosvd`` of the densified ensemble
        the store holds: one route, bit for bit."""
        store, entry = stored
        bundle = compute_bundle("s", store, entry, (3, 3, 3))
        expected = hosvd(store.get("t").to_dense(), (3, 3, 3))
        assert np.array_equal(bundle.tucker.core, expected.core)
        for got, want in zip(bundle.tucker.factors, expected.factors):
            assert np.array_equal(got, want)


def _bundle(study: str, nbytes_target: int = 0) -> FactorBundle:
    side = max(2, int(np.sqrt(max(nbytes_target, 64) / 8 / 2)))
    dense = np.random.default_rng(len(study)).standard_normal((side, side))
    tucker = hosvd(dense, [2, 2])
    ranking = FactorEngine(tucker).rank_residuals(
        np.array(list(np.ndindex(dense.shape))), dense.ravel()
    )
    return FactorBundle(study=study, tucker=tucker, ranking=ranking)


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
