"""Factor bundles: the cached unit of serving state.

A :class:`FactorBundle` is one study's Tucker factors plus the residual
ranking of its stored cells (what top-k anomaly queries answer from).
:func:`compute_bundle` builds one from the study's block store: one
checksummed read of every stored block, then a dense HOSVD.  Bundles
are cheap to keep, so they live in one in-memory tier,
:class:`HotFactorCache`, an LRU with *admission control*: a bundle must
be requested ``admit_after`` times before it may occupy a slot, and
bundles larger than ``admission_fraction`` of the byte budget are never
admitted.  One cold scan over a thousand studies therefore cannot evict
the hot tenants (TinyLFU's insight, sized down).

Nothing is persisted: a fresh process recomputes each bundle from the
study's blocks on first use, and a corrupt block fails that study's
bundle with :class:`~repro.exceptions.BlockCorruptionError` instead of
serving wrong factors.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable

from ..exceptions import ServingError
from ..observability import get_metrics, span as _span
from ..tensor.tucker import TuckerTensor, clip_ranks, hosvd
from .engine import FactorEngine, ResidualRanking


@dataclass(frozen=True)
class FactorBundle:
    """One study's servable decomposition state."""

    study: str
    tucker: TuckerTensor
    ranking: ResidualRanking

    @property
    def nbytes(self) -> int:
        """In-memory footprint (core + factors + ranking)."""
        return int(
            self.tucker.core.nbytes
            + sum(f.nbytes for f in self.tucker.factors)
            + self.ranking.nbytes
        )


def compute_bundle(study: str, store, entry, ranks) -> FactorBundle:
    """Decompose a study's stored ensemble into a fresh bundle.

    Ranks are clipped per mode (scenario-zoo studies register uniform
    ranks that small modes may not support).  The stored ensemble is
    read once, every block checksummed, and decomposed by
    :func:`~repro.tensor.tucker.hosvd`, which densifies it (null cells
    become 0.0) and takes its one dense route.  The same tensor's
    cells are then ranked by residual in one batch, so a corrupt block
    surfaces here, and top-k queries never re-read it.
    """
    with _span("serving-bundle-compute", "serving", study=study):
        tensor = store.get(entry.name)
        tucker = hosvd(tensor, clip_ranks(tensor.shape, ranks))
        ranking = FactorEngine(tucker, study=study).rank_residuals(
            tensor.coords, tensor.values
        )
        get_metrics().counter("serving.bundles_computed").inc()
        return FactorBundle(study=study, tucker=tucker, ranking=ranking)


@dataclass
class HotFactorStats:
    """Running totals for one :class:`HotFactorCache`."""

    hits: int = 0
    misses: int = 0
    admitted: int = 0
    rejected: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        seen = self.hits + self.misses
        return self.hits / seen if seen else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class HotFactorCache:
    """Admission-controlled LRU of factor bundles.

    Parameters
    ----------
    max_entries:
        Bundle slots (LRU within admitted bundles).
    max_bytes:
        In-memory byte budget across all slots; eviction runs until both
        limits hold.
    admit_after:
        Requests a study must accumulate before its bundle may be
        cached.  ``1`` admits immediately; ``2`` makes one-shot scans
        cache-transparent.
    admission_fraction:
        A single bundle larger than this fraction of ``max_bytes`` is
        never admitted (it would evict everything else for one tenant).
    """

    max_entries: int = 16
    max_bytes: int = 256 * 1024 * 1024
    admit_after: int = 1
    admission_fraction: float = 0.5
    stats: HotFactorStats = field(default_factory=HotFactorStats)
    _entries: "OrderedDict[Hashable, FactorBundle]" = field(
        default_factory=OrderedDict
    )
    _requests: Dict[Hashable, int] = field(default_factory=dict)
    _bytes: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ServingError(
                f"max_entries must be >= 1, got {self.max_entries}"
            )
        if self.admit_after < 1:
            raise ServingError(
                f"admit_after must be >= 1, got {self.admit_after}"
            )
        if not 0.0 < self.admission_fraction <= 1.0:
            raise ServingError(
                "admission_fraction must be in (0, 1], got "
                f"{self.admission_fraction}"
            )

    # ------------------------------------------------------------------
    def get(
        self, key: Hashable, loader: Callable[[], FactorBundle]
    ) -> FactorBundle:
        """The bundle for ``key``, via ``loader`` on a miss.

        Metrics: ``serving.factor_cache.hits`` / ``.misses`` feed the
        hit-rate the server reports per study.
        """
        metrics = get_metrics()
        with self._lock:
            bundle = self._entries.get(key)
            if bundle is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                metrics.counter("serving.factor_cache.hits").inc()
                return bundle
            self.stats.misses += 1
            self._requests[key] = self._requests.get(key, 0) + 1
            requests = self._requests[key]
        metrics.counter("serving.factor_cache.misses").inc()
        bundle = loader()
        with self._lock:
            self._maybe_admit(key, bundle, requests)
        return bundle

    def _maybe_admit(
        self, key: Hashable, bundle: FactorBundle, requests: int
    ) -> None:
        # caller holds the lock
        metrics = get_metrics()
        oversized = bundle.nbytes > self.admission_fraction * self.max_bytes
        if requests < self.admit_after or oversized:
            self.stats.rejected += 1
            metrics.counter("serving.factor_cache.rejected").inc()
            return
        self._entries[key] = bundle
        self._entries.move_to_end(key)
        self._bytes += bundle.nbytes
        self.stats.admitted += 1
        metrics.counter("serving.factor_cache.admitted").inc()
        while self._entries and (
            len(self._entries) > self.max_entries
            or self._bytes > self.max_bytes
        ):
            _evicted_key, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.stats.evictions += 1
            metrics.counter("serving.factor_cache.evictions").inc()

    # ------------------------------------------------------------------
    def invalidate(self, key: Hashable) -> None:
        """Drop one bundle (re-registration, unregistration)."""
        with self._lock:
            bundle = self._entries.pop(key, None)
            if bundle is not None:
                self._bytes -= bundle.nbytes
            self._requests.pop(key, None)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes
