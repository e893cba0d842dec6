"""Table VI reproduction: the impact of reduced pivot density ``P``.

Paper shape to reproduce: reducing ``P`` (at full sub-ensemble
density ``E``) lowers accuracy moderately — noticeably *less* than an
equal reduction of ``E`` (Table VII), because the stitched effective
density is proportional to ``P * E^2``.
"""

from __future__ import annotations

from .config import ExperimentConfig, StudyCache
from .reporting import ExperimentReport
from .schemes import ALL_SCHEMES, run_all_schemes


def run(
    config: ExperimentConfig, cache: StudyCache = None
) -> ExperimentReport:
    config.validate()
    cache = cache or StudyCache()
    study = cache.study(config.default_system, config.default_resolution)
    report = ExperimentReport(
        experiment_id="table6",
        title="Varying pivot density P (paper Table VI; E = 100%)",
        headers=["P", "cells"] + list(ALL_SCHEMES),
    )
    for pivot_fraction in config.pivot_fractions:
        results = run_all_schemes(
            study,
            config.default_rank,
            seed=config.seed,
            pivot_fraction=pivot_fraction,
        )
        report.add_row(
            f"{pivot_fraction:.0%}",
            results["M2TD-SELECT"].cells,
            *(float(results[s].accuracy) for s in ALL_SCHEMES),
        )
    return report
