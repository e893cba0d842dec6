"""The store catalog: JSON metadata describing every stored tensor."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..exceptions import StorageError
from ..observability import get_metrics

CATALOG_FILE = "catalog.json"


@dataclass
class TensorEntry:
    """Catalog record for one stored tensor.

    ``digest`` is a SHA-256 over the per-block checksums, so it changes
    whenever any stored value does.  Catalogs written before it was
    recorded load with ``None``.
    """

    name: str
    shape: Tuple[int, ...]
    block_shape: Tuple[int, ...]
    nnz: int
    n_blocks: int
    block_ids: List[Tuple[int, ...]]
    digest: Optional[str] = None

    def to_json(self) -> Dict:
        record = asdict(self)
        record["shape"] = list(self.shape)
        record["block_shape"] = list(self.block_shape)
        record["block_ids"] = [list(b) for b in self.block_ids]
        return record

    @classmethod
    def from_json(cls, record: Dict) -> "TensorEntry":
        return cls(
            name=str(record["name"]),
            shape=tuple(int(s) for s in record["shape"]),
            block_shape=tuple(int(s) for s in record["block_shape"]),
            nnz=int(record["nnz"]),
            n_blocks=int(record["n_blocks"]),
            block_ids=[tuple(int(i) for i in b) for b in record["block_ids"]],
            digest=record.get("digest"),
        )


class Catalog:
    """Load/save the per-directory tensor catalog."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.path = self.directory / CATALOG_FILE
        self._entries: Dict[str, TensorEntry] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            with open(self.path) as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(f"cannot read catalog {self.path}: {exc}") from exc
        self._entries = {
            name: TensorEntry.from_json(record)
            for name, record in raw.get("tensors", {}).items()
        }

    def _save(self) -> None:
        payload = {
            "version": 1,
            "tensors": {
                name: entry.to_json() for name, entry in self._entries.items()
            },
        }
        tmp_path = self.path.with_suffix(".tmp")
        with open(tmp_path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        tmp_path.replace(self.path)

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def get(self, name: str) -> TensorEntry:
        """One metered catalog lookup.

        ``storage.catalog_lookups`` is the micro-benchmark guard's
        handle: hot read paths (``get``/``slice_query``) must resolve
        the entry once per *request*, never once per block.
        """
        get_metrics().counter("storage.catalog_lookups").inc()
        try:
            return self._entries[name]
        except KeyError:
            raise StorageError(f"tensor {name!r} not in catalog") from None

    def put(self, entry: TensorEntry) -> None:
        self._entries[entry.name] = entry
        self._save()

    def remove(self, name: str) -> TensorEntry:
        entry = self.get(name)
        del self._entries[name]
        self._save()
        return entry
