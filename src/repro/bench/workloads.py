"""Named benchmark workloads for ``python -m repro.bench``.

Each workload is one registered, buildable unit of work: ``build``
receives a :class:`SizeSpec` and returns a :class:`PreparedWorkload`
whose ``run()`` is the timed body (setup cost — ground-truth
simulation, sub-ensemble materialisation, store population — happens
in ``build`` and is excluded from timing).  The registry holds the
per-kernel layers that ``perfbench/`` (the whole-study benchmark)
does not time: the Tucker kernels, D-M2TD at 1/2/4 in-process workers
and on supervised worker processes, block-store reads and writes, and
the serving concurrency ladder.  The M2TD variants, JE-stitching and
campaigns are timed per layer by perfbench and are not repeated here.

``BENCH_RESOLUTION`` / ``BENCH_RANK`` / ``BENCH_SEED`` are the single
source of truth for benchmark scale.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..exceptions import BenchError

#: Parameter-space resolution every full-size benchmark runs at.
BENCH_RESOLUTION = 8

#: Per-mode target rank every full-size benchmark runs at.
BENCH_RANK = 3

#: RNG seed for all benchmark sampling.
BENCH_SEED = 7

#: CI-sized counterparts (the ``--quick`` flag).
QUICK_RESOLUTION = 5
QUICK_RANK = 2


@dataclass(frozen=True)
class SizeSpec:
    """One input-size configuration for every workload."""

    mode: str
    resolution: int
    rank: int
    seed: int
    iterations: int
    warmup: int


FULL = SizeSpec(
    mode="full",
    resolution=BENCH_RESOLUTION,
    rank=BENCH_RANK,
    seed=BENCH_SEED,
    iterations=7,
    warmup=2,
)

QUICK = SizeSpec(
    mode="quick",
    resolution=QUICK_RESOLUTION,
    rank=QUICK_RANK,
    seed=BENCH_SEED,
    iterations=5,
    warmup=1,
)


class PreparedWorkload:
    """A built workload: the timed thunk plus an optional teardown."""

    def __init__(
        self,
        run: Callable[[], object],
        close: Optional[Callable[[], None]] = None,
    ):
        self.run = run
        self._close = close

    def close(self) -> None:
        if self._close is not None:
            self._close()


@dataclass(frozen=True)
class Workload:
    """One registered benchmark workload."""

    name: str
    suite: str
    description: str
    build: Callable[[SizeSpec], PreparedWorkload]


#: The global registry, keyed by workload name.
WORKLOADS: Dict[str, Workload] = {}


def workload(
    name: str, suite: str, description: str
) -> Callable[[Callable[[SizeSpec], PreparedWorkload]], Callable]:
    """Register a builder under ``name`` in ``suite``."""

    def decorate(build: Callable[[SizeSpec], PreparedWorkload]):
        if name in WORKLOADS:
            raise BenchError(f"workload {name!r} registered twice")
        WORKLOADS[name] = Workload(
            name=name, suite=suite, description=description, build=build
        )
        return build

    return decorate


def suites() -> List[str]:
    """All suite names, sorted."""
    return sorted({w.suite for w in WORKLOADS.values()})


def get_workloads(
    suites_filter: Optional[Sequence[str]] = None,
) -> List[Workload]:
    """Workloads of the selected suites (all by default), name-sorted."""
    if suites_filter:
        unknown = set(suites_filter) - set(suites())
        if unknown:
            raise BenchError(
                f"unknown suite(s) {sorted(unknown)}; available: {suites()}"
            )
        selected = [
            w for w in WORKLOADS.values() if w.suite in set(suites_filter)
        ]
    else:
        selected = list(WORKLOADS.values())
    return sorted(selected, key=lambda w: (w.suite, w.name))


# ----------------------------------------------------------------------
# shared inputs (cached per size so a suite run builds each study once)
# ----------------------------------------------------------------------
_STUDY_CACHE: Dict[int, object] = {}


def _study(size: SizeSpec):
    """The double-pendulum benchmark study at ``size.resolution``."""
    from ..core import EnsembleStudy
    from ..simulation import make_system

    if size.resolution not in _STUDY_CACHE:
        _STUDY_CACHE[size.resolution] = EnsembleStudy.create(
            make_system("double_pendulum"), size.resolution
        )
    return _STUDY_CACHE[size.resolution]


def clear_input_cache() -> None:
    """Drop cached studies (tests use this to bound memory)."""
    _STUDY_CACHE.clear()


def _ranks(size: SizeSpec, n_modes: int) -> List[int]:
    return [size.rank] * n_modes


def _sub_ensembles(size: SizeSpec):
    """Full-density cross-sampled sub-ensembles of the benchmark study."""
    from ..sampling.budget import budget_for_fractions

    study = _study(size)
    partition = study.default_partition()
    budget = budget_for_fractions(partition)
    x1, x2, _cells, _runs = study.sample_sub_ensembles(
        partition, budget, seed=size.seed
    )
    return study, partition, x1, x2


def _sparse_sample(size: SizeSpec, density: float = 0.3):
    from ..sampling import RandomSampler
    from ..tensor import SparseTensor

    study = _study(size)
    shape = study.space.shape
    budget = max(1, int(density * study.truth.size))
    sample = RandomSampler(seed=size.seed).sample(shape, budget)
    values = study.truth[tuple(sample.coords.T)]
    return SparseTensor(shape, sample.coords, values)


# ----------------------------------------------------------------------
# suite: kernels — the Tucker building blocks
# ----------------------------------------------------------------------
def _kernel(fn_name: str) -> Callable[[SizeSpec], PreparedWorkload]:
    def build(size: SizeSpec) -> PreparedWorkload:
        from ..tensor import tucker

        fn = getattr(tucker, fn_name)
        study = _study(size)
        truth = study.truth
        ranks = _ranks(size, truth.ndim)
        if fn_name == "hooi":
            return PreparedWorkload(lambda: fn(truth, ranks, n_iter=3))
        return PreparedWorkload(lambda: fn(truth, ranks))

    return build


for _fn, _desc in (
    ("hosvd", "plain HOSVD of the dense ground-truth tensor"),
    ("st_hosvd", "sequentially truncated HOSVD of the ground truth"),
    ("hooi", "HOOI refinement (3 sweeps) of the ground truth"),
):
    workload(f"kernel.{_fn}", "kernels", _desc)(_kernel(_fn))


@workload(
    "kernel.gram.hosvd",
    "kernels",
    "HOSVD of a 30%-dense sparse sample: the Gram route, no densification",
)
def _build_gram_hosvd(size: SizeSpec) -> PreparedWorkload:
    from ..tensor import hosvd

    tensor = _sparse_sample(size).compile()
    ranks = _ranks(size, tensor.ndim)
    return PreparedWorkload(lambda: hosvd(tensor, ranks))


# ----------------------------------------------------------------------
# suite: distributed — D-M2TD through MapReduce at 1/2/4 workers
# ----------------------------------------------------------------------
def _engine(workers: int, external: bool):
    """The MapReduce engine for one ``dm2td.*`` row.

    The venue is pinned by the row name: ``M2TD_TRANSPORT`` is hidden
    while the in-process engine is built, so an exported
    ``M2TD_TRANSPORT=process`` cannot move ``dm2td.workers*`` onto
    worker processes under their thread-venue names.
    """
    from ..distributed.mapreduce import LocalMapReduceEngine

    if external:
        return LocalMapReduceEngine(n_workers=workers, transport="process")
    exported = os.environ.pop("M2TD_TRANSPORT", None)
    try:
        return LocalMapReduceEngine(n_workers=workers)
    finally:
        if exported is not None:
            os.environ["M2TD_TRANSPORT"] = exported


def _dm2td(
    workers: int, external: bool = False
) -> Callable[[SizeSpec], PreparedWorkload]:
    def build(size: SizeSpec) -> PreparedWorkload:
        from ..distributed.dm2td import distributed_m2td
        from ..runtime import Runtime

        study, partition, x1, x2 = _sub_ensembles(size)
        ranks = _ranks(size, study.space.n_modes)
        runtime = Runtime(workers=workers)
        engine = _engine(workers, external)

        def run():
            return distributed_m2td(
                x1, x2, partition, ranks,
                variant="select", engine=engine, runtime=runtime,
            )

        def close():
            engine.close()
            runtime.shutdown()

        return PreparedWorkload(run, close)

    return build


for _workers in (1, 2, 4):
    workload(
        f"dm2td.workers{_workers}",
        "distributed",
        f"3-phase D-M2TD (MapReduce + task graph) at {_workers} "
        "in-process worker(s)",
    )(_dm2td(_workers))

# the cross-process serialization + supervision overhead against the
# in-process rows above
for _workers in (2, 4):
    workload(
        f"dm2td.external.workers{_workers}",
        "distributed",
        f"3-phase D-M2TD on {_workers} supervised external worker "
        "processes (heartbeats + leases)",
    )(_dm2td(_workers, external=True))


# ----------------------------------------------------------------------
# suite: storage — the block tensor store
# ----------------------------------------------------------------------
def _temp_store():
    from ..storage import BlockTensorStore

    directory = tempfile.mkdtemp(prefix="repro-bench-store-")
    return BlockTensorStore(directory), directory


@workload(
    "store.put",
    "storage",
    "split + compress + persist a 30%-dense sparse ensemble tensor",
)
def _build_store_put(size: SizeSpec) -> PreparedWorkload:
    tensor = _sparse_sample(size)
    store, directory = _temp_store()
    return PreparedWorkload(
        lambda: store.put("bench", tensor, overwrite=True),
        close=lambda: shutil.rmtree(directory, ignore_errors=True),
    )


@workload(
    "store.get",
    "storage",
    "load + reassemble a stored sparse ensemble tensor",
)
def _build_store_get(size: SizeSpec) -> PreparedWorkload:
    tensor = _sparse_sample(size)
    store, directory = _temp_store()
    store.put("bench", tensor)
    return PreparedWorkload(
        lambda: store.get("bench"),
        close=lambda: shutil.rmtree(directory, ignore_errors=True),
    )


@workload(
    "store.slice_query",
    "storage",
    "hyperplane query reading only the blocks a slice touches",
)
def _build_store_slice(size: SizeSpec) -> PreparedWorkload:
    tensor = _sparse_sample(size)
    store, directory = _temp_store()
    store.put("bench", tensor)
    mode = 0
    index = tensor.shape[mode] // 2

    return PreparedWorkload(
        lambda: store.slice_query("bench", mode=mode, index=index),
        close=lambda: shutil.rmtree(directory, ignore_errors=True),
    )


# ----------------------------------------------------------------------
# suite: serving — factor-space queries under concurrent clients
# ----------------------------------------------------------------------
def _serving_catalog(size: SizeSpec):
    """A two-tenant catalog over the benchmark ensemble, bundles
    pre-warmed so the timed body measures serving, not HOSVD."""
    from ..serving import StudyCatalog

    directory = tempfile.mkdtemp(prefix="repro-bench-serving-")
    catalog = StudyCatalog(directory)
    n_modes = len(_study(size).space.shape)
    for key, density in (("primary", 0.3), ("secondary", 0.15)):
        catalog.register(
            key, _sparse_sample(size, density=density),
            ranks=_ranks(size, n_modes),
        )
        catalog.engine(key)  # warm both cache tiers
    return catalog, directory


def _serving_load(
    kind: str,
    n_clients: int,
    queries_per_client: int,
    batching: bool = True,
) -> Callable[[SizeSpec], PreparedWorkload]:
    def build(size: SizeSpec) -> PreparedWorkload:
        from ..serving import run_load

        catalog, directory = _serving_catalog(size)
        return PreparedWorkload(
            lambda: run_load(
                catalog,
                kind=kind,
                n_clients=n_clients,
                queries_per_client=queries_per_client,
                batching=batching,
                seed=size.seed,
            ),
            close=lambda: shutil.rmtree(directory, ignore_errors=True),
        )

    return build


for _name, _kind, _clients, _queries, _batching, _desc in (
    ("serving.point_c1", "point", 1, 100, True,
     "factor-space point queries, one sequential client"),
    ("serving.point_c100", "point", 100, 10, True,
     "batched point queries under 100 concurrent clients"),
    ("serving.point_c100_unbatched", "point", 100, 10, False,
     "the batching control: same stream, one request per drain"),
    ("serving.point_c10k", "point", 10_000, 1, True,
     "batched point queries under 10k concurrent clients"),
    ("serving.slice_c100", "slice", 100, 3, True,
     "hyperplane queries under 100 concurrent clients"),
    ("serving.topk_c20", "topk", 20, 1, True,
     "top-k anomaly queries (bundle ranking) under 20 clients"),
):
    workload(_name, "serving", _desc)(
        _serving_load(_kind, _clients, _queries, batching=_batching)
    )


def size_for(mode: str) -> SizeSpec:
    """The :class:`SizeSpec` for a mode name (``full`` / ``quick``)."""
    if mode == "full":
        return FULL
    if mode == "quick":
        return QUICK
    raise BenchError(f"unknown size mode {mode!r} (use 'full' or 'quick')")


__all__ = [
    "BENCH_RANK",
    "BENCH_RESOLUTION",
    "BENCH_SEED",
    "FULL",
    "QUICK",
    "PreparedWorkload",
    "SizeSpec",
    "Workload",
    "WORKLOADS",
    "clear_input_cache",
    "get_workloads",
    "size_for",
    "suites",
    "workload",
]
