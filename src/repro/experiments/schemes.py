"""Scheme roster shared by the table runners: the three M2TD variants
against the three conventional baselines, at matched cell budgets.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.pipeline import EnsembleStudy, StudyResult
from ..exceptions import ExperimentError
from ..sampling import GridSampler, PFPartition, RandomSampler, SliceSampler

M2TD_VARIANTS = ("avg", "concat", "select")
CONVENTIONAL_SCHEMES = ("Random", "Grid", "Slice")
ALL_SCHEMES = tuple(f"M2TD-{v.upper()}" for v in M2TD_VARIANTS) + CONVENTIONAL_SCHEMES


def conventional_sampler(name: str, seed: int):
    """Instantiate a Section IV baseline sampler by display name."""
    if name == "Random":
        return RandomSampler(seed)
    if name == "Grid":
        return GridSampler()
    if name == "Slice":
        return SliceSampler(seed)
    raise ExperimentError(f"unknown conventional scheme {name!r}")


def run_all_schemes(
    study: EnsembleStudy,
    rank: int,
    seed: int,
    pivot: str = "t",
    partition: Optional[PFPartition] = None,
    pivot_fraction: float = 1.0,
    free_fraction: float = 1.0,
    join_kind: str = "join",
    sub_sampling: str = "cross",
) -> Dict[str, StudyResult]:
    """Run every scheme on one study configuration.

    The conventional baselines receive exactly the cell budget the
    M2TD configuration consumes — the paper's "same number of
    simulation instances" ground rule.
    """
    ranks = [rank] * study.space.n_modes
    results: Dict[str, StudyResult] = {}
    for variant in M2TD_VARIANTS:
        result = study.run_m2td(
            ranks,
            variant=variant,
            pivot=pivot,
            partition=partition,
            pivot_fraction=pivot_fraction,
            free_fraction=free_fraction,
            join_kind=join_kind,
            sub_sampling=sub_sampling,
            seed=seed,
        )
        results[result.scheme] = result
    budget = next(iter(results.values())).cells
    for name in CONVENTIONAL_SCHEMES:
        sampler = conventional_sampler(name, seed)
        results[name] = study.run_conventional(sampler, budget, ranks)
    return results
