"""Extension experiment: campaign-level adaptive budget allocation.

This experiment evaluates the *campaign* layer (:mod:`repro.campaigns`):
whole rounds of simulations allocated across probed configurations by
per-cell stitched-reconstruction error, versus the uniform-allocation
control, at the same total budget on the epidemic study.

Reported per strategy: ground-truth RMSE of the final model, cells
charged, rounds run, and the stopping reason — the campaign analogue
of the paper's fixed-budget quality tables.
"""

from __future__ import annotations

from typing import Dict

from ..campaigns import (
    ALLOCATIONS,
    CampaignOrchestrator,
    CampaignOutcome,
    CampaignSpec,
)
from ..core.pipeline import EnsembleStudy
from .config import ExperimentConfig, StudyCache
from .reporting import ExperimentReport

#: Campaign study resolution: the golden-test scale — big enough for
#: several confirm rounds, small enough for seconds-per-run.
CAMPAIGN_RESOLUTION = 6

#: Confirm-round batch in simulation cells.
CAMPAIGN_BATCH = 24


def run_allocations(
    study: EnsembleStudy, **spec_fields
) -> Dict[str, CampaignOutcome]:
    """Run the adaptive campaign and its uniform baseline on ``study``.

    Both campaigns share every spec field but ``allocation``; each
    records its ground-truth RMSE per round.
    """
    outcomes = {}
    for allocation in ALLOCATIONS:
        spec = CampaignSpec(allocation=allocation, **spec_fields)
        with CampaignOrchestrator(
            spec, study=study, truth_metrics=True
        ) as orchestrator:
            outcomes[allocation] = orchestrator.run()
    return outcomes


def run(
    config: ExperimentConfig, cache: StudyCache = None
) -> ExperimentReport:
    config.validate()
    cache = cache or StudyCache()
    study = cache.study("epidemic_seir", CAMPAIGN_RESOLUTION)
    partition = study.default_partition()
    full_budget = (
        2 * partition.pivot_space_size * partition.free_space_size(1)
    )
    budget = max(
        CAMPAIGN_BATCH, int(config.campaign_budget_fraction * full_budget)
    )

    report = ExperimentReport(
        experiment_id="ext-campaign",
        title="Extension: adaptive vs uniform campaign allocation "
        f"(epidemic, {config.campaign_budget_fraction:.0%} of "
        f"{full_budget} cells)",
        headers=[
            "allocation", "truth RMSE", "cells", "rounds", "stop",
        ],
    )
    outcomes = run_allocations(
        study,
        scenario="epidemic_seir",
        budget=budget,
        batch=CAMPAIGN_BATCH,
        success_delta=1e-9,
        resolution=CAMPAIGN_RESOLUTION,
        rank=2,
        seed=config.seed,
        max_rounds=12,
    )
    finals = {}
    for allocation, outcome in outcomes.items():
        final_rmse = outcome.rounds[-1].truth_rmse
        finals[allocation] = final_rmse
        report.add_row(
            allocation,
            float(final_rmse),
            outcome.cells_simulated,
            len(outcome.rounds),
            outcome.stop_reason,
        )
    if finals["adaptive"] < finals["uniform"]:
        report.notes.append(
            "error-guided allocation beats uniform at equal budget — "
            "the probe signal concentrates cells on the worst fibers"
        )
    else:
        report.notes.append(
            "adaptive within noise of uniform at this budget; raise "
            "--campaign-budget-fraction to give the signal more rounds"
        )
    return report
