"""Factor bundles: the cached, integrity-checked unit of serving state.

A :class:`FactorBundle` is one study's Tucker factors plus provenance.
Bundles are expensive (a sparse HOSVD of the stored ensemble) and tiny
relative to the tensors they summarise, so the loading chain is two
cache tiers deep:

1. :class:`HotFactorCache` — decoded bundles in memory, LRU with
   *admission control*: a bundle must be requested ``admit_after``
   times before it may occupy a slot, and bundles larger than
   ``admission_fraction`` of the byte budget are never admitted.  One
   cold scan over a thousand studies therefore cannot evict the hot
   tenants (TinyLFU's insight, sized down).
2. the runtime's content-addressed :class:`~repro.runtime.ResultCache`
   — ``.npz`` on disk, checksummed, quarantine-on-corruption.  A
   corrupt or missing bundle entry is *never served*: the cache
   reports a miss and the loader recomputes from the block store.

``serving.factor-load`` is this layer's fault-injection site: a
``corrupt`` fault bit-flips the on-disk bundle entry, and the chaos
suite asserts the next query is re-served from a recomputed bundle
with the recovery metered.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..exceptions import ServingError
from ..faults.injector import get_injector
from ..observability import get_metrics, span as _span
from ..runtime import ResultCache, fingerprint
from ..tensor.tucker import TuckerTensor, clip_ranks, hosvd

#: Bump when the bundle payload layout changes — old cache entries
#: then simply miss instead of decoding wrongly.
BUNDLE_CODEC_VERSION = 1


@dataclass(frozen=True)
class FactorBundle:
    """One study's servable decomposition state."""

    study: str
    tucker: TuckerTensor
    fingerprint: str

    @property
    def nbytes(self) -> int:
        """Decoded in-memory footprint (core + factors)."""
        return int(
            self.tucker.core.nbytes
            + sum(f.nbytes for f in self.tucker.factors)
        )


def bundle_fingerprint(study: str, entry, ranks) -> str:
    """Content address of a study's bundle.

    Keyed on the stored tensor's identity (shape, nnz, block layout)
    plus the decomposition request — re-registering a study with new
    data or new ranks yields a new address, so stale bundles can never
    shadow fresh ones.
    """
    return fingerprint(
        "serving.bundle",
        {
            "version": BUNDLE_CODEC_VERSION,
            "study": study,
            "shape": list(entry.shape),
            "nnz": int(entry.nnz),
            "n_blocks": int(entry.n_blocks),
            "block_shape": list(entry.block_shape),
            "ranks": [int(r) for r in ranks],
        },
    )


def _encode_bundle(tucker: TuckerTensor) -> Dict:
    return {
        "core": tucker.core,
        "factors": [np.asarray(f) for f in tucker.factors],
    }


def _decode_bundle(payload) -> TuckerTensor:
    try:
        # TuckerTensor.__post_init__ validates shape consistency, so a
        # structurally-decoded-but-wrong payload still fails loudly.
        return TuckerTensor(payload["core"], list(payload["factors"]))
    except Exception as exc:
        raise ServingError(f"undecodable factor bundle: {exc}") from exc


def compute_bundle(study: str, store, entry, ranks) -> FactorBundle:
    """Decompose a study's stored ensemble into a fresh bundle.

    Ranks are clipped per mode (scenario-zoo studies register uniform
    ranks that small modes may not support).  The stored ensemble is
    sparse, so :func:`~repro.tensor.tucker.hosvd` takes its Gram route
    and never densifies it (``tensor.dense_unfolds`` stays 0 through
    the whole serving path — pinned by the serving guard tests).
    """
    with _span("serving-bundle-compute", "serving", study=study):
        tensor = store.get(entry.name)
        tucker = hosvd(tensor, clip_ranks(tensor.shape, ranks))
        get_metrics().counter("serving.bundles_computed").inc()
        return FactorBundle(
            study=study,
            tucker=tucker,
            fingerprint=bundle_fingerprint(study, entry, ranks),
        )


def load_bundle(
    study: str,
    store,
    entry,
    ranks,
    result_cache: Optional[ResultCache] = None,
) -> FactorBundle:
    """Load a bundle through the content-addressed disk tier.

    The ``serving.factor-load`` injection point fires against the
    cache entry's backing file *before* the read, so a ``corrupt``
    fault exercises the cache's own checksum/quarantine machinery —
    the recovery path is a real recompute, never a special case.
    """
    if result_cache is None:
        return compute_bundle(study, store, entry, ranks)
    key = bundle_fingerprint(study, entry, ranks)
    injector = get_injector()
    if injector.enabled:
        # corrupt faults need the backing file; raise/delay fire even
        # for a memory-only cache.
        path = (
            result_cache._path(key)
            if result_cache.directory is not None
            else None
        )
        injector.fire("serving.factor-load", study, path=path)
    hit, payload = result_cache.get(key)
    if hit:
        try:
            tucker = _decode_bundle(payload)
            get_metrics().counter("serving.bundle_disk_hits").inc()
            return FactorBundle(study=study, tucker=tucker, fingerprint=key)
        except ServingError:
            # Structurally valid cache entry that is not a bundle —
            # treat exactly like a miss and heal by recompute.
            get_metrics().counter("serving.bundle_decode_errors").inc()
    bundle = compute_bundle(study, store, entry, ranks)
    result_cache.put(key, _encode_bundle(bundle.tucker))
    if injector.enabled:
        injector.note_recovery("serving.factor-load", study)
    return bundle


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
    """Admission-controlled LRU of decoded factor bundles.

    Parameters
    ----------
    max_entries:
        Bundle slots (LRU within admitted bundles).
    max_bytes:
        Decoded-byte budget across all slots; eviction runs until both
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
    _entries: "OrderedDict[str, FactorBundle]" = field(
        default_factory=OrderedDict
    )
    _requests: Dict[str, int] = field(default_factory=dict)
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
        self, key: str, loader: Callable[[], FactorBundle]
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
        self, key: str, bundle: FactorBundle, requests: int
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
    def invalidate(self, key: str) -> None:
        """Drop one bundle (re-registration, corruption healing)."""
        with self._lock:
            bundle = self._entries.pop(key, None)
            if bundle is not None:
                self._bytes -= bundle.nbytes
            self._requests.pop(key, None)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes
