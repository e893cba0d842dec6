"""The study catalog: many live ensembles, one sharded substrate.

Multi-tenancy is directory-sharded: every registered study gets its
*own* :class:`~repro.storage.BlockTensorStore` under
``<root>/shards/<key>/`` — its own block files and its own
``catalog.json`` — so slice and residual reads for different studies
never touch a shared file or a shared in-memory catalog.  The serving
catalog itself is one small ``studies.json`` at the root mapping study
keys to their shard + decomposition request, written atomically the
same way the storage catalog is.

The catalog hands out :class:`~repro.serving.engine.FactorEngine`\\ s
over the study's :class:`~repro.serving.bundle.FactorBundle`, kept in
one in-memory tier, :class:`~repro.serving.bundle.HotFactorCache`.  Its
key is ``(study, content digest of the stored tensor, ranks)``: the
digest is recorded in the shard's catalog when the tensor is stored,
so a lookup hashes nothing, and new data under the same key can never
be served stale factors.  A miss computes the bundle from the blocks
(:func:`~repro.serving.bundle.compute_bundle`).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..exceptions import ServingError, StudyNotFoundError
from ..observability import get_metrics, span as _span
from ..storage import BlockTensorStore
from ..tensor.sparse import SparseTensor
from .bundle import FactorBundle, HotFactorCache, compute_bundle
from .engine import FactorEngine

STUDIES_FILE = "studies.json"

#: Same naming discipline as the block store — keys become directories.
_KEY_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")


@dataclass(frozen=True)
class StudyEntry:
    """Catalog record for one registered study."""

    key: str
    tensor_name: str
    shape: Tuple[int, ...]
    nnz: int
    ranks: Tuple[int, ...]

    def to_json(self) -> Dict:
        return {
            "key": self.key,
            "tensor_name": self.tensor_name,
            "shape": list(self.shape),
            "nnz": int(self.nnz),
            "ranks": list(self.ranks),
        }

    @classmethod
    def from_json(cls, record: Dict) -> "StudyEntry":
        # Older catalogs also carry a "method" field; it is ignored.
        return cls(
            key=str(record["key"]),
            tensor_name=str(record["tensor_name"]),
            shape=tuple(int(s) for s in record["shape"]),
            nnz=int(record["nnz"]),
            ranks=tuple(int(r) for r in record["ranks"]),
        )


class StudyCatalog:
    """Registry of servable studies over a sharded store root.

    Parameters
    ----------
    root:
        Directory holding ``studies.json`` plus one shard directory
        per study.
    hot_factors:
        The admission-controlled LRU serving engines are built from.
    """

    def __init__(
        self,
        root,
        hot_factors: Optional[HotFactorCache] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / STUDIES_FILE
        self.hot_factors = hot_factors or HotFactorCache()
        self._entries: Dict[str, StudyEntry] = {}
        self._stores: Dict[str, BlockTensorStore] = {}
        if self.path.exists():
            self._load()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _load(self) -> None:
        try:
            with open(self.path) as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ServingError(
                f"cannot read study catalog {self.path}: {exc}"
            ) from exc
        self._entries = {
            key: StudyEntry.from_json(record)
            for key, record in raw.get("studies", {}).items()
        }

    def _save(self) -> None:
        payload = {
            "version": 1,
            "studies": {
                key: entry.to_json()
                for key, entry in self._entries.items()
            },
        }
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        tmp.replace(self.path)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    @staticmethod
    def _check_key(key: str) -> str:
        if not _KEY_PATTERN.match(key):
            raise ServingError(
                f"invalid study key {key!r}; use letters, digits, "
                "'_', '-', '.'"
            )
        return key

    def shard_dir(self, key: str) -> Path:
        """The per-study store directory (the sharding unit)."""
        return self.root / "shards" / self._check_key(key)

    def store_for(self, key: str) -> BlockTensorStore:
        """The study's own block store, one instance per catalog."""
        if key not in self._entries:
            raise StudyNotFoundError(key, self._entries)
        store = self._stores.get(key)
        if store is None:
            store = self._stores[key] = BlockTensorStore(
                self.shard_dir(key)
            )
        return store

    def register(
        self,
        key: str,
        tensor: SparseTensor,
        ranks,
        block_shape: Optional[Tuple[int, ...]] = None,
        overwrite: bool = False,
    ) -> StudyEntry:
        """Register (or replace) a study: persist its ensemble into
        its shard and record the decomposition request.

        A non-finite stored value is rejected here, before anything is
        written: it would otherwise only surface at the first query,
        as a failed SVD inside the kernel.
        """
        self._check_key(key)
        if not np.isfinite(tensor.values).all():
            raise ServingError(
                f"study {key!r}: ensemble has non-finite values"
            )
        if key in self._entries and not overwrite:
            raise ServingError(
                f"study {key!r} already registered (pass overwrite=True)"
            )
        ranks = tuple(int(r) for r in ranks)
        if len(ranks) != len(tensor.shape):
            raise ServingError(
                f"study {key!r}: {len(ranks)} ranks for "
                f"{len(tensor.shape)} modes"
            )
        with _span(
            "serving-register", "serving", study=key, nnz=tensor.nnz,
            shape=tensor.shape,
        ):
            store = self._stores.get(key)
            if store is None:
                store = self._stores[key] = BlockTensorStore(
                    self.shard_dir(key)
                )
            tensor_name = "ensemble"
            old = self._entries.get(key)
            if old is not None:
                # new data ⇒ new digest; drop the old hot entry
                self._drop_hot_bundle(key, store, old)
            store.put(
                tensor_name, tensor, block_shape=block_shape,
                overwrite=True,
            )
            entry = StudyEntry(
                key=key,
                tensor_name=tensor_name,
                shape=tensor.shape,
                nnz=tensor.nnz,
                ranks=ranks,
            )
            self._entries[key] = entry
            self._save()
            get_metrics().counter("serving.studies_registered").inc()
        return entry

    @staticmethod
    def _bundle_key(key: str, tensor_entry, ranks) -> Hashable:
        """The study's hot-tier key: ``(study, digest, ranks)``, with
        the digest the shard's catalog recorded when the tensor was
        stored (``None`` for a tensor stored before digests were)."""
        return (key, tensor_entry.digest, ranks)

    def _drop_hot_bundle(
        self, key: str, store: BlockTensorStore, entry: StudyEntry
    ) -> None:
        """Evict the study's current bundle from the hot tier."""
        if entry.tensor_name in store.catalog:
            tensor_entry = store.catalog.get(entry.tensor_name)
            self.hot_factors.invalidate(
                self._bundle_key(key, tensor_entry, entry.ranks)
            )

    def unregister(self, key: str) -> StudyEntry:
        entry = self.entry(key)
        store = self.store_for(key)
        self._drop_hot_bundle(key, store, entry)
        if entry.tensor_name in store.catalog:
            store.delete(entry.tensor_name)
        del self._entries[key]
        self._stores.pop(key, None)
        self._save()
        return entry

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def entry(self, key: str) -> StudyEntry:
        try:
            return self._entries[key]
        except KeyError:
            raise StudyNotFoundError(key, self._entries) from None

    def keys(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # serving state
    # ------------------------------------------------------------------
    def bundle(self, key: str) -> FactorBundle:
        """The study's factor bundle: a hot-tier hit, or computed from
        its blocks on a miss."""
        entry = self.entry(key)
        store = self.store_for(key)
        tensor_entry = store.catalog.get(entry.tensor_name)
        return self.hot_factors.get(
            self._bundle_key(key, tensor_entry, entry.ranks),
            lambda: compute_bundle(key, store, tensor_entry, entry.ranks),
        )

    def engine(self, key: str) -> FactorEngine:
        """A query engine over the study's (cached) factors and
        residual ranking."""
        bundle = self.bundle(key)
        return FactorEngine(bundle.tucker, study=key, ranking=bundle.ranking)
