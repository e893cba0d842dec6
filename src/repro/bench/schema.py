"""The ``BENCH_<suite>.json`` artifact format.

One document per suite, schema-versioned so future PRs can evolve the
layout without silently breaking ``compare``.  Layout (version 1)::

    {
      "schema": "repro.bench/1",
      "suite": "kernels",
      "mode": "full" | "quick",
      "created_unix": 1754000000.0,
      "environment": {python, numpy, scipy, platform, machine,
                      cpu_count, git_sha},
      "workloads": [
        {
          "name": "kernel.hosvd",
          "suite": "kernels",
          "mode": "full",
          "description": "...",
          "iterations": 5,
          "warmup": 2,
          "wall_seconds": {median, iqr, min, max, mean, samples},
          "cpu_seconds":  {median, iqr, min, max, mean, samples},
          "peak_memory_bytes": 1234567,
          "metrics": {"svd.calls": 24.0, ...}
        }, ...
      ]
    }

Every run records the environment fingerprint because timings are only
comparable within one machine; ``compare`` warns when fingerprints
differ but still reports the ratios.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional

from ..exceptions import BenchError

#: Current artifact schema identifier.
SCHEMA = "repro.bench/1"

#: Required summary-statistic keys inside wall_seconds / cpu_seconds.
STAT_KEYS = ("median", "iqr", "min", "max", "mean")

_TOP_FIELDS = {
    "schema": str,
    "suite": str,
    "mode": str,
    "created_unix": (int, float),
    "environment": dict,
    "workloads": list,
}

_WORKLOAD_FIELDS = {
    "name": str,
    "suite": str,
    "mode": str,
    "description": str,
    "iterations": int,
    "warmup": int,
    "wall_seconds": dict,
    "cpu_seconds": dict,
    "peak_memory_bytes": int,
    "metrics": dict,
}

_ENVIRONMENT_FIELDS = ("python", "numpy", "platform", "cpu_count")


def bench_filename(suite: str) -> str:
    """Canonical artifact name for a suite."""
    return f"BENCH_{suite}.json"


def git_sha() -> Optional[str]:
    """The repository HEAD sha, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment_fingerprint() -> Dict[str, Any]:
    """Versions + hardware context stamped into every document."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is a hard dep today
        scipy_version = None
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


def make_document(
    suite: str, mode: str, workloads: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Assemble (and validate) a suite document from workload records."""
    doc = {
        "schema": SCHEMA,
        "suite": suite,
        "mode": mode,
        "created_unix": time.time(),
        "environment": environment_fingerprint(),
        "workloads": sorted(workloads, key=lambda w: w["name"]),
    }
    validate_document(doc)
    return doc


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _require(mapping: Dict[str, Any], fields: Dict[str, Any], where: str) -> None:
    for key, kinds in fields.items():
        if key not in mapping:
            raise BenchError(f"{where}: missing required field {key!r}")
        if not isinstance(mapping[key], kinds):
            raise BenchError(
                f"{where}: field {key!r} has type "
                f"{type(mapping[key]).__name__}, expected {kinds}"
            )


def _check_stats(stats: Dict[str, Any], where: str) -> None:
    for key in STAT_KEYS:
        if key not in stats:
            raise BenchError(f"{where}: missing statistic {key!r}")
        if not isinstance(stats[key], (int, float)):
            raise BenchError(f"{where}: statistic {key!r} is not numeric")
        if stats[key] < 0:
            raise BenchError(f"{where}: statistic {key!r} is negative")
    samples = stats.get("samples")
    if not isinstance(samples, list) or not samples:
        raise BenchError(f"{where}: 'samples' must be a non-empty list")


def validate_document(doc: Any) -> None:
    """Raise :class:`~repro.exceptions.BenchError` unless ``doc`` is a
    well-formed version-1 BENCH document."""
    if not isinstance(doc, dict):
        raise BenchError("BENCH document is not a JSON object")
    _require(doc, _TOP_FIELDS, "document")
    if doc["schema"] != SCHEMA:
        raise BenchError(
            f"unsupported schema {doc['schema']!r} (this reader "
            f"understands {SCHEMA!r})"
        )
    for key in _ENVIRONMENT_FIELDS:
        if key not in doc["environment"]:
            raise BenchError(f"environment: missing field {key!r}")
    if not doc["workloads"]:
        raise BenchError(f"suite {doc['suite']!r} document has no workloads")
    seen = set()
    for record in doc["workloads"]:
        if not isinstance(record, dict):
            raise BenchError("workload record is not a JSON object")
        where = f"workload {record.get('name', '?')!r}"
        _require(record, _WORKLOAD_FIELDS, where)
        if record["suite"] != doc["suite"]:
            raise BenchError(
                f"{where}: suite {record['suite']!r} does not match "
                f"document suite {doc['suite']!r}"
            )
        if record["mode"] != doc["mode"]:
            raise BenchError(f"{where}: mode does not match document mode")
        if record["name"] in seen:
            raise BenchError(f"{where}: duplicate workload name")
        seen.add(record["name"])
        _check_stats(record["wall_seconds"], f"{where}.wall_seconds")
        _check_stats(record["cpu_seconds"], f"{where}.cpu_seconds")
        if record["iterations"] < 1:
            raise BenchError(f"{where}: iterations must be >= 1")
        if record["peak_memory_bytes"] < 0:
            raise BenchError(f"{where}: peak_memory_bytes is negative")


# ----------------------------------------------------------------------
# I/O
# ----------------------------------------------------------------------
def write_document(doc: Dict[str, Any], path: str) -> None:
    validate_document(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_document(path: str) -> Dict[str, Any]:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCH document {path!r}: {exc}") from exc
    validate_document(doc)
    return doc


def iter_workloads(docs: Iterable[Dict[str, Any]]):
    """All workload records across documents, with their environment."""
    for doc in docs:
        for record in doc["workloads"]:
            yield doc, record
