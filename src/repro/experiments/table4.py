"""Table IV reproduction: accuracy and decomposition time across the
three dynamic systems (double pendulum, triple pendulum, Lorenz).

Paper shape to reproduce: the Table II pattern holds per system —
M2TD variants are orders of magnitude above the conventional schemes.
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
        experiment_id="table4",
        title="Accuracy across dynamic systems (paper Table IV)",
        headers=["System"] + list(ALL_SCHEMES),
    )
    time_report = ExperimentReport(
        experiment_id="table4-time",
        title="Decomposition time (s) across dynamic systems",
        headers=["System"] + list(ALL_SCHEMES),
    )
    for system_name in config.systems:
        study = cache.study(system_name, config.default_resolution)
        results = run_all_schemes(
            study, config.default_rank, seed=config.seed
        )
        accuracy_report.add_row(
            system_name, *(float(results[s].accuracy) for s in ALL_SCHEMES)
        )
        time_report.add_row(
            system_name,
            *(float(results[s].decompose_seconds) for s in ALL_SCHEMES),
        )
    accuracy_report.extra_tables["decomposition time (s)"] = time_report
    return accuracy_report
