"""Figure-level analyses: effective density (paper Figure 6) and the
simulation-cost amortisation argument of Section VII-E1.
"""

from __future__ import annotations

import numpy as np

from ..core.stitch import join_tensor
from ..sampling.budget import budget_for_fractions, effective_density_ratio
from ..simulation import SimulationMeter, simulate_fibers
from .config import ExperimentConfig, StudyCache
from .reporting import ExperimentReport


def run_fig6(
    config: ExperimentConfig, cache: StudyCache = None
) -> ExperimentReport:
    """Figure 6: PF-partitioning + JE-stitching yields a far higher
    effective density than conventionally sampling the full space with
    the same budget.  Reports both the analytic ratio and the measured
    non-null counts of the stitched tensor."""
    config.validate()
    cache = cache or StudyCache()
    study = cache.study(config.default_system, config.default_resolution)
    partition = study.default_partition()
    report = ExperimentReport(
        experiment_id="fig6",
        title="Effective density of partition-stitch sampling "
        "(paper Figure 6)",
        headers=[
            "E",
            "budget cells",
            "conv. density",
            "join entries",
            "effective density",
            "gain (analytic)",
            "gain (measured)",
        ],
    )
    full_cells = study.truth.size
    for free_fraction in config.free_fractions:
        budget = budget_for_fractions(partition, 1.0, free_fraction)
        x1, x2, cells, _runs = study.sample_sub_ensembles(
            partition, budget, seed=config.seed
        )
        joined = join_tensor(x1, x2, partition)
        conventional_density = cells / full_cells
        effective_density = joined.nnz / full_cells
        report.add_row(
            f"{free_fraction:.0%}",
            cells,
            float(conventional_density),
            joined.nnz,
            float(effective_density),
            float(effective_density_ratio(partition, budget)),
            float(effective_density / conventional_density),
        )
    return report


def run_budget_curve(
    config: ExperimentConfig, cache: StudyCache = None
) -> ExperimentReport:
    """Accuracy-vs-budget curves for every scheme.

    The paper's tables sample this relationship at a few points
    (Tables V-VII); the curve view makes the crossover structure
    explicit: M2TD's accuracy falls roughly with E^2 as the budget
    shrinks, the conventional schemes stay flat near zero, and the
    two families never cross within the sweep.
    """
    from .schemes import ALL_SCHEMES, run_all_schemes

    config.validate()
    cache = cache or StudyCache()
    study = cache.study(config.default_system, config.default_resolution)
    report = ExperimentReport(
        experiment_id="fig-budget",
        title="Accuracy vs budget (free-fraction sweep, all schemes)",
        headers=["budget fraction", "cells"] + list(ALL_SCHEMES),
    )
    for fraction in (1.0, 0.75, 0.5, 0.25, 0.125):
        results = run_all_schemes(
            study,
            config.default_rank,
            seed=config.seed,
            free_fraction=fraction,
        )
        report.add_row(
            f"{fraction:.0%}",
            results["M2TD-SELECT"].cells,
            *(float(results[s].accuracy) for s in ALL_SCHEMES),
        )
    report.notes.append(
        "budget scales the sub-ensemble density E at P = 100%; "
        "conventional schemes receive the matched cell budget per row"
    )
    return report


def run_cost_amortisation(
    config: ExperimentConfig, cache: StudyCache = None
) -> ExperimentReport:
    """Section VII-E1's cost claim: the partitioned scheme reaches the
    full-space effective density with ~``2 * E`` simulation runs
    instead of ``R^{n_params}`` runs.  Measures actual integrator
    wall-clock for both."""
    config.validate()
    cache = cache or StudyCache()
    study = cache.study(config.default_system, config.default_resolution)
    space = study.space
    partition = study.default_partition()
    budget = budget_for_fractions(partition, 1.0, 1.0)

    # Partitioned scheme: simulate only the sub-ensembles' runs.
    meter = SimulationMeter()
    for which in (1, 2):
        free_modes = partition.s1_free if which == 1 else partition.s2_free
        combos = np.stack(
            np.meshgrid(
                *(np.arange(space.shape[m]) for m in free_modes),
                indexing="ij",
            ),
            axis=-1,
        ).reshape(-1, len(free_modes))
        param_indices = np.empty(
            (combos.shape[0], space.n_param_modes), dtype=np.int64
        )
        for mode in range(space.n_param_modes):
            if mode in free_modes:
                param_indices[:, mode] = combos[:, free_modes.index(mode)]
            else:
                param_indices[:, mode] = partition.fixed_indices.get(
                    mode, space.shape[mode] // 2
                )
        simulate_fibers(space, study.observation, param_indices, meter=meter)
    partitioned_runs = meter.runs
    partitioned_seconds = meter.wall_seconds

    # Full-space scheme: measure a slice and extrapolate.
    probe = min(256, space.n_simulations_full)
    probe_indices = np.stack(
        np.unravel_index(
            np.arange(probe), (space.resolution,) * space.n_param_modes
        ),
        axis=1,
    )
    probe_meter = SimulationMeter()
    simulate_fibers(space, study.observation, probe_indices, meter=probe_meter)
    full_runs = space.n_simulations_full
    full_seconds = probe_meter.wall_seconds * (full_runs / probe)

    report = ExperimentReport(
        experiment_id="fig-cost",
        title="Simulation cost amortisation (paper Section VII-E1)",
        headers=["Scheme", "runs", "integrator seconds"],
    )
    report.add_row(
        "partition-stitch (2E runs)",
        partitioned_runs,
        float(partitioned_seconds),
    )
    report.add_row(
        "full space (R^n runs, extrapolated)", full_runs, float(full_seconds)
    )
    report.notes.append(
        f"speedup: {full_seconds / max(partitioned_seconds, 1e-12):.1f}x "
        "fewer integrator-seconds for the same effective density "
        f"(budget cells = {budget.cells})"
    )
    return report
