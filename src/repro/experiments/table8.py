"""Table VIII reproduction: the choice of the pivot parameter.

Paper shape to reproduce: the pivot choice moves M2TD accuracy around
somewhat, but *every* pivot stays orders of magnitude above the
conventional schemes — precise a-priori knowledge of the system is not
needed to partition it.

Following the paper's caption, the 3-mode sub-systems keep the free
parameters of the same pendulum together: when a pendulum parameter
is pivoted, the time mode replaces it in that pendulum's sub-system.
"""

from __future__ import annotations

from typing import List

from ..exceptions import ExperimentError
from ..sampling import PFPartition
from .config import ExperimentConfig, StudyCache
from .reporting import ExperimentReport
from .schemes import ALL_SCHEMES, run_all_schemes

PENDULUM_GROUPS = (("phi1", "m1"), ("phi2", "m2"))


def pendulum_partition(study, pivot: str) -> PFPartition:
    """Same-pendulum PF-partition of the double pendulum for ``pivot``."""
    group1: List[str] = list(PENDULUM_GROUPS[0])
    group2: List[str] = list(PENDULUM_GROUPS[1])
    if pivot == "t":
        pass  # both groups intact; time is the pivot
    elif pivot in group1:
        group1.remove(pivot)
        group1.append("t")
    elif pivot in group2:
        group2.remove(pivot)
        group2.append("t")
    else:
        raise ExperimentError(f"unknown double-pendulum pivot {pivot!r}")
    return study.default_partition(
        pivot=pivot, s1_free=tuple(group1), s2_free=tuple(group2)
    )


def run(
    config: ExperimentConfig, cache: StudyCache = None
) -> ExperimentReport:
    config.validate()
    cache = cache or StudyCache()
    study = cache.study("double_pendulum", config.default_resolution)
    accuracy_report = ExperimentReport(
        experiment_id="table8",
        title="Pivot parameter choice (paper Table VIII; double pendulum)",
        headers=["Pivot"] + list(ALL_SCHEMES),
    )
    time_report = ExperimentReport(
        experiment_id="table8-time",
        title="Decomposition time (s) per pivot",
        headers=["Pivot"] + list(ALL_SCHEMES),
    )
    for pivot in config.pivots:
        partition = pendulum_partition(study, pivot)
        results = run_all_schemes(
            study,
            config.default_rank,
            seed=config.seed,
            pivot=pivot,
            partition=partition,
        )
        accuracy_report.add_row(
            pivot, *(float(results[s].accuracy) for s in ALL_SCHEMES)
        )
        time_report.add_row(
            pivot,
            *(float(results[s].decompose_seconds) for s in ALL_SCHEMES),
        )
    accuracy_report.extra_tables["decomposition time (s)"] = time_report
    return accuracy_report
