"""D-M2TD: the 3-phase distributed M2TD driver (paper Section VI-D,
Algorithm 6).

Runs the three MapReduce phases on the local engine, combines the
pivot factors per the chosen M2TD variant between phases 1 and 2, and
reports, for any :class:`~repro.distributed.cluster.ClusterModel`, the
wall-clock each phase would take — the reproduction of Table III.

``variant`` supports ``"avg"`` and ``"select"``; M2TD-CONCAT needs the
concatenated matricization SVD, which is not expressible in the
paper's phase-1 job (each reducer sees only its own sub-tensor), so it
is intentionally rejected here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..exceptions import MapReduceError
from ..observability import span as _span
from ..runtime import Runtime, TaskGraph, output
from ..sampling.partition import PFPartition
from ..tensor.sparse import SparseTensor
from ..tensor.tucker import TuckerTensor
from ..core.m2td import M2TDResult, map_ranks_to_join
from ..core.row_select import combine_pivot_factors
from .cluster import ClusterModel
from .mapreduce import JobStats, LocalMapReduceEngine
from .phases import (
    _split_flat,
    phase1_job,
    phase1_records,
    phase2_job,
    phase2_records,
    phase3_job,
)

PHASE_NAMES = ("phase1", "phase2", "phase3")


@dataclass
class DM2TDResult:
    """Distributed decomposition outcome plus per-phase accounting."""

    result: M2TDResult
    job_stats: Dict[str, JobStats] = field(default_factory=dict)

    def phase_times(self, cluster: ClusterModel) -> Dict[str, float]:
        """Modelled per-phase wall-clock on the given cluster."""
        return {
            phase: cluster.job_time(self.job_stats[phase])
            for phase in PHASE_NAMES
        }

    def total_time(self, cluster: ClusterModel) -> float:
        return sum(self.phase_times(cluster).values())


def _clip(rank: int, size: int) -> int:
    return max(1, min(int(rank), int(size)))


def dm2td_task_graph(
    x1: SparseTensor,
    x2: SparseTensor,
    partition: PFPartition,
    ranks: Sequence[int],
    variant: str = "select",
    join_kind: str = "join",
    engine: Optional[LocalMapReduceEngine] = None,
) -> TaskGraph:
    """The 3-phase D-M2TD pipeline as a runtime task graph.

    The dependency structure mirrors the data flow of Algorithm 6:
    phase 1 (sub-tensor decomposition) and phase 2 (JE-stitching) read
    only the raw sub-tensors and are **independent** — a multi-worker
    runtime overlaps them — while the pivot-factor combination hangs
    off phase 1 and phase 3 joins both branches.  Each task returns
    ``(payload, JobStats)`` so the driver can assemble the result and
    the cluster model replay.
    """
    if variant not in ("avg", "select"):
        raise MapReduceError(
            f"D-M2TD supports variants 'avg' and 'select', got {variant!r}"
        )
    engine = engine or LocalMapReduceEngine()
    join_ranks = map_ranks_to_join(partition, ranks)
    k = partition.k
    f1 = len(partition.s1_free)
    f2 = len(partition.s2_free)

    def run_phase1():
        with _span(
            "dm2td-phase1", "decompose", variant=variant,
            nnz1=x1.nnz, nnz2=x2.nnz,
        ):
            ranks1 = tuple(join_ranks[:k]) + tuple(join_ranks[k : k + f1])
            ranks2 = tuple(join_ranks[:k]) + tuple(join_ranks[k + f1 :])
            job1 = phase1_job({1: ranks1, 2: ranks2})
            return engine.run(job1, phase1_records(x1, x2))

    def combine_pivots(phase1_out):
        # Combine pivot factors per variant (driver side; tiny
        # matrices).
        with _span("dm2td-combine-pivots", "stitch-factor", variant=variant):
            return _combine_pivots(phase1_out)

    def _combine_pivots(phase1_out):
        out1, _stats1 = phase1_out
        by_side: Dict[int, Dict[int, tuple]] = {1: {}, 2: {}}
        for _key, (kappa, mode, u, s) in out1:
            by_side[kappa][mode] = u, s
        pivot_factors = []
        for mode in range(k):
            (u1, s1), (u2, s2) = by_side[1][mode], by_side[2][mode]
            pivot_factors.append(
                combine_pivot_factors([u1, u2], [s1, s2], variant)
            )
        s1_factors = [by_side[1][k + i][0] for i in range(f1)]
        s2_factors = [by_side[2][k + i][0] for i in range(f2)]
        return pivot_factors, s1_factors, s2_factors

    def run_phase2():
        # Zero-join candidate sets must be GLOBAL (the distinct free
        # configurations observed anywhere in each sub-ensemble); each
        # per-pivot reducer only sees its own group, so the driver
        # broadcasts them into the job.
        with _span("dm2td-phase2", "stitch", join_kind=join_kind):
            candidates1 = candidates2 = None
            if join_kind == "zero":
                candidates1 = np.unique(_split_flat(x1, partition, 1)[1])
                candidates2 = np.unique(_split_flat(x2, partition, 2)[1])
            job2 = phase2_job(
                partition,
                join_kind=join_kind,
                candidates1=candidates1,
                candidates2=candidates2,
            )
            return engine.run(job2, phase2_records(x1, x2, partition))

    def run_phase3(combined, phase2_out):
        with _span("dm2td-phase3", "decompose", variant=variant):
            pivot_factors, s1_factors, s2_factors = combined
            blocks, _stats2 = phase2_out
            job3 = phase3_job(
                partition, pivot_factors, s1_factors, s2_factors
            )
            return engine.run(job3, blocks)

    graph = TaskGraph()
    graph.add("phase1", run_phase1, affinity="thread")
    graph.add("combine-pivots", combine_pivots, output("phase1"))
    graph.add("phase2", run_phase2, affinity="thread")
    graph.add(
        "phase3", run_phase3, output("combine-pivots"), output("phase2"),
        affinity="thread",
    )
    return graph


def distributed_m2td(
    x1: SparseTensor,
    x2: SparseTensor,
    partition: PFPartition,
    ranks: Sequence[int],
    variant: str = "select",
    join_kind: str = "join",
    engine: Optional[LocalMapReduceEngine] = None,
    runtime: Optional[Runtime] = None,
) -> DM2TDResult:
    """Run the 3-phase D-M2TD pipeline.

    Parameters mirror :func:`repro.core.m2td.m2td_decompose`; the
    output decomposition is numerically identical to the single-node
    path for the same inputs (tests assert this), only the execution
    is organised as MapReduce jobs scheduled through a
    :class:`~repro.runtime.TaskGraph` with per-task accounting.  A
    multi-worker ``runtime`` overlaps the independent phases 1 and 2;
    without one the graph runs inline in topological order.
    """
    graph = dm2td_task_graph(
        x1, x2, partition, ranks,
        variant=variant, join_kind=join_kind, engine=engine,
    )
    if runtime is None:
        runtime = Runtime(workers=1)
        outcome = runtime.run(graph)
        runtime.shutdown()
    else:
        outcome = runtime.run(graph)
    _out1, stats1 = outcome["phase1"]
    blocks, stats2 = outcome["phase2"]
    partials, stats3 = outcome["phase3"]
    pivot_factors, s1_factors, s2_factors = outcome["combine-pivots"]
    job_stats: Dict[str, JobStats] = {
        "phase1": stats1,
        "phase2": stats2,
        "phase3": stats3,
    }
    join_nnz = int(sum(v.shape[0] for _pivot, (_a, _b, v) in blocks))
    core_shape = tuple(
        f.shape[1] for f in pivot_factors + s1_factors + s2_factors
    )
    core = np.zeros(core_shape)
    for _key, partial in partials:
        core += partial

    factors = pivot_factors + s1_factors + s2_factors
    result = M2TDResult(
        tucker=TuckerTensor(core, factors),
        partition=partition,
        variant=variant,
        join_kind=join_kind,
        join_nnz=join_nnz,
        phase_seconds={
            "sub_decompose": stats1.total_compute_seconds,
            "stitch": stats2.total_compute_seconds,
            "core": stats3.total_compute_seconds,
        },
    )
    return DM2TDResult(result=result, job_stats=job_stats)
