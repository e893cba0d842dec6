"""Table VII reproduction: the impact of reduced sub-ensemble density
``E``.

Paper shape to reproduce: at the same total budget, reducing ``E``
hurts much more than reducing ``P`` (Table VI) — the stitched
effective density scales as ``P * E^2``, so ``E`` enters squared.
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
        experiment_id="table7",
        title="Varying sub-ensemble density E (paper Table VII; P = 100%)",
        headers=["E", "cells"] + list(ALL_SCHEMES),
    )
    for free_fraction in config.free_fractions:
        results = run_all_schemes(
            study,
            config.default_rank,
            seed=config.seed,
            free_fraction=free_fraction,
        )
        report.add_row(
            f"{free_fraction:.0%}",
            results["M2TD-SELECT"].cells,
            *(float(results[s].accuracy) for s in ALL_SCHEMES),
        )
    return report
