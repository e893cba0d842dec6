"""Table II reproduction: accuracy and decomposition time on the
double pendulum across resolutions and target ranks.

Paper shape to reproduce: M2TD-based schemes beat the conventional
schemes by orders of magnitude at equal budget; among conventional
schemes Random is worst; among M2TD variants SELECT leads, with its
margin growing at higher ranks.  M2TD decomposition costs more than
the conventional schemes (denser stitched tensor) but amortises the
effective-density gain.
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
    accuracy_report = ExperimentReport(
        experiment_id="table2",
        title="Double pendulum: accuracy across resolution x rank "
        "(paper Table II(a))",
        headers=["Res.", "Rank"] + list(ALL_SCHEMES),
    )
    time_report = ExperimentReport(
        experiment_id="table2-time",
        title="Double pendulum: decomposition time (s) "
        "(paper Table II(b))",
        headers=["Res.", "Rank"] + list(ALL_SCHEMES),
    )
    for resolution in config.resolutions:
        study = cache.study(config.default_system, resolution)
        for rank in config.ranks:
            results = run_all_schemes(study, rank, seed=config.seed)
            accuracy_report.add_row(
                resolution,
                rank,
                *(float(results[s].accuracy) for s in ALL_SCHEMES),
            )
            time_report.add_row(
                resolution,
                rank,
                *(float(results[s].decompose_seconds) for s in ALL_SCHEMES),
            )
    accuracy_report.extra_tables["decomposition time (s)"] = time_report
    accuracy_report.notes.append(
        "resolutions stand in for the paper's 60/70/80; ranks for 5/10/20"
    )
    return accuracy_report
