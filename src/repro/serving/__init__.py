"""repro.serving — query factorized ensembles without reconstruction.

The serving layer answers **point**, **slice**, and **top-k-anomaly**
queries for many registered studies directly from their cached Tucker
factors and sharded block stores — the full tensor is never
reconstructed (``tucker.reconstructs`` stays flat while serving, and
the test suite asserts it).

The stack, bottom-up:

- :class:`~repro.serving.engine.FactorEngine` — factor-space query
  evaluation: a point is the core contracted with one factor row per
  mode (batched across a whole queue drain), a slice is a single-row
  core contraction followed by the remaining TTMs, and a top-k anomaly
  query takes the head of a :class:`ResidualRanking` of the stored
  cells.
- :mod:`repro.serving.bundle` — :class:`FactorBundle` (factors plus
  that ranking, computed once per bundle) loading through
  two cache tiers: an admission-controlled in-memory
  :class:`HotFactorCache` over the runtime's content-addressed,
  checksummed :class:`~repro.runtime.ResultCache` on disk.
- :class:`~repro.serving.catalog.StudyCatalog` — multi-tenant registry;
  every study shards into its own
  :class:`~repro.storage.BlockTensorStore` directory.
- :class:`~repro.serving.server.ServingServer` — asyncio front-end
  with per-study queues, point-query batching (one contraction per
  drain) and bounded-queue overload shedding
  (:class:`~repro.exceptions.ServingOverloadError`).

``python -m repro.serving`` exposes ``catalog`` / ``query`` / ``serve``;
:func:`~repro.serving.loadgen.run_load` is the in-process load driver
shared by the CLI, the ``BENCH_serving.json`` suite and the tests.
See ``docs/serving.md``.
"""

from .bundle import (
    FactorBundle,
    HotFactorCache,
    HotFactorStats,
    bundle_fingerprint,
    compute_bundle,
    load_bundle,
)
from .catalog import StudyCatalog, StudyEntry
from .engine import FactorEngine, ResidualRanking
from .loadgen import run_load
from .server import ServingClient, ServingServer

__all__ = [
    "FactorBundle",
    "FactorEngine",
    "HotFactorCache",
    "HotFactorStats",
    "ResidualRanking",
    "ServingClient",
    "ServingServer",
    "StudyCatalog",
    "StudyEntry",
    "bundle_fingerprint",
    "compute_bundle",
    "load_bundle",
    "run_load",
]
