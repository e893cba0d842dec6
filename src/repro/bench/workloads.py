"""Named benchmark workloads shared by the harness and the pytest
benches.

Each workload is one registered, buildable unit of work: ``build``
receives a :class:`SizeSpec` and returns a :class:`PreparedWorkload`
whose ``run()`` is the timed body (setup cost — ground-truth
simulation, sub-ensemble materialisation, store population — happens
in ``build`` and is excluded from timing).  The registry spans every
layer the paper's cost tables exercise: the three M2TD variants, the
two JE-stitches, the Tucker kernels, D-M2TD at 1/2/4 workers, and the
block store.

``BENCH_RESOLUTION`` / ``BENCH_RANK`` / ``BENCH_SEED`` are the single
source of truth for benchmark scale; ``benchmarks/_bench_utils.py``
re-exports them so the pytest-benchmark suites and this harness cannot
drift apart.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
_STUDY_CACHE: Dict[Tuple[str, int], object] = {}


def _study(size: SizeSpec):
    from ..core import EnsembleStudy
    from ..simulation import make_system

    key = ("double_pendulum", size.resolution)
    if key not in _STUDY_CACHE:
        _STUDY_CACHE[key] = EnsembleStudy.create(
            make_system("double_pendulum"), size.resolution
        )
    return _STUDY_CACHE[key]


def clear_input_cache() -> None:
    """Drop cached studies (tests use this to bound memory)."""
    _STUDY_CACHE.clear()


def _ranks(size: SizeSpec, n_modes: int) -> List[int]:
    return [size.rank] * n_modes


def _sub_ensembles(size: SizeSpec, sub_sampling: str, free_fraction: float):
    from ..sampling.budget import budget_for_fractions

    study = _study(size)
    partition = study.default_partition()
    budget = budget_for_fractions(partition, free_fraction=free_fraction)
    x1, x2, _cells, _runs = study.sample_sub_ensembles(
        partition, budget, sub_sampling=sub_sampling, seed=size.seed
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
# suite: m2td — the paper's decomposition variants + JE-stitching
# ----------------------------------------------------------------------
def _m2td_variant(variant: str) -> Callable[[SizeSpec], PreparedWorkload]:
    def build(size: SizeSpec) -> PreparedWorkload:
        study = _study(size)
        ranks = _ranks(size, study.space.n_modes)
        return PreparedWorkload(
            lambda: study.run_m2td(ranks, variant=variant, seed=size.seed)
        )

    return build


for _variant in ("avg", "concat", "select"):
    workload(
        f"m2td.{_variant}",
        "m2td",
        f"end-to-end M2TD-{_variant.upper()}: PF-partition, sub-ensemble "
        "sampling, JE-stitch, decomposition",
    )(_m2td_variant(_variant))


@workload(
    "stitch.join",
    "m2td",
    "join-based JE-stitching of two cross-sampled sub-ensembles",
)
def _build_stitch_join(size: SizeSpec) -> PreparedWorkload:
    from ..core.stitch import join_tensor

    _study_, partition, x1, x2 = _sub_ensembles(size, "cross", 1.0)
    return PreparedWorkload(lambda: join_tensor(x1, x2, partition))


@workload(
    "stitch.zero_join",
    "m2td",
    "zero-join JE-stitching of randomly sampled (partially matched) "
    "sub-ensembles",
)
def _build_stitch_zero(size: SizeSpec) -> PreparedWorkload:
    from ..core.stitch import zero_join_tensor

    _study_, partition, x1, x2 = _sub_ensembles(size, "random", 0.6)
    return PreparedWorkload(lambda: zero_join_tensor(x1, x2, partition))


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
def _dm2td(workers: int) -> Callable[[SizeSpec], PreparedWorkload]:
    def build(size: SizeSpec) -> PreparedWorkload:
        from ..distributed.dm2td import distributed_m2td
        from ..distributed.mapreduce import LocalMapReduceEngine
        from ..runtime import Runtime

        study, partition, x1, x2 = _sub_ensembles(size, "cross", 1.0)
        ranks = _ranks(size, study.space.n_modes)
        runtime = Runtime(workers=workers)
        engine = LocalMapReduceEngine(n_workers=workers)

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
        f"3-phase D-M2TD (MapReduce + task graph) at {_workers} worker(s)",
    )(_dm2td(_workers))


def _dm2td_external(workers: int) -> Callable[[SizeSpec], PreparedWorkload]:
    """D-M2TD dispatched through the supervised worker pool: real
    child processes, heartbeats, leases — measures the cross-process
    serialization + supervision overhead against the in-process rows."""

    def build(size: SizeSpec) -> PreparedWorkload:
        from ..distributed.dm2td import distributed_m2td
        from ..distributed.mapreduce import LocalMapReduceEngine
        from ..runtime import Runtime

        study, partition, x1, x2 = _sub_ensembles(size, "cross", 1.0)
        ranks = _ranks(size, study.space.n_modes)
        runtime = Runtime(workers=workers)
        engine = LocalMapReduceEngine(
            n_workers=workers, transport="process"
        )

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


for _workers in (2, 4):
    workload(
        f"dm2td.external.workers{_workers}",
        "distributed",
        f"3-phase D-M2TD on {_workers} supervised external worker "
        "processes (heartbeats + leases)",
    )(_dm2td_external(_workers))


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
     "top-k anomaly queries (residual scan) under 20 clients"),
):
    workload(_name, "serving", _desc)(
        _serving_load(_kind, _clients, _queries, batching=_batching)
    )


# ----------------------------------------------------------------------
# suite: campaigns — the adaptive sample→decompose→resample loop
# ----------------------------------------------------------------------
def _epidemic_study(size: SizeSpec):
    from ..core import EnsembleStudy
    from ..simulation import make_system

    key = ("epidemic_seir", size.resolution)
    if key not in _STUDY_CACHE:
        _STUDY_CACHE[key] = EnsembleStudy.create(
            make_system("epidemic_seir"), size.resolution
        )
    return _STUDY_CACHE[key]


@workload(
    "campaign.epidemic",
    "campaigns",
    "ephemeral adaptive campaign on the epidemic study: explore sweep "
    "+ three error-guided confirm rounds (journal in memory, study "
    "pre-built)",
)
def _build_campaign_epidemic(size: SizeSpec) -> PreparedWorkload:
    from ..campaigns import CampaignOrchestrator, CampaignSpec

    study = _epidemic_study(size)
    pivot_size = size.resolution
    free_size = size.resolution ** 2
    batch = 4 * pivot_size
    explore_cost = 2 * max(1, round(0.25 * free_size)) * 2
    spec = CampaignSpec(
        scenario="epidemic_seir",
        budget=explore_cost + 4 * batch,
        batch=batch,
        success_delta=1e-9,
        resolution=size.resolution,
        rank=size.rank,
        seed=size.seed,
        max_rounds=3,
    )

    def run():
        with CampaignOrchestrator(spec, study=study) as orchestrator:
            return orchestrator.run()

    return PreparedWorkload(run)


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
