"""Shared experiment configuration and the study cache.

The paper's evaluation (Table I) sweeps resolutions 60-80 per mode,
ranks 5-20, and budgets up to 10^5 on an 18-server cluster; the scaled
defaults here keep every table reproducible on a laptop in minutes
while preserving each experiment's comparison structure (see
DESIGN.md's substitution table).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..core.pipeline import EnsembleStudy
from ..exceptions import ExperimentError
from ..runtime import Runtime
from ..simulation import make_system


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment runners.

    Attributes
    ----------
    resolutions:
        Parameter-space resolutions standing in for the paper's
        ``{60, 70, 80}``.
    ranks:
        Target decomposition ranks standing in for ``{5, 10, 20}``.
    default_resolution / default_rank:
        The single setting non-sweep tables use (the paper uses
        resolution 70, rank 10).
    systems:
        System names for the cross-system table (Table IV).
    servers:
        Cluster sizes for the D-M2TD scaling table (Table III).
    pivot_fractions / free_fractions:
        The ``P`` / ``E`` densities swept by Tables VI and VII.
    budget_fraction_low:
        The reduced-budget setting of Table V.
    campaign_budget_fraction:
        Fraction of the full sub-space budget an ``ext-campaign`` run
        may spend (the 0.88 default matches the golden regression's
        380-cell pin at resolution 6).
    seed:
        Base RNG seed for all sampling.
    """

    resolutions: Tuple[int, ...] = (8, 10, 12)
    ranks: Tuple[int, ...] = (2, 3, 5)
    default_resolution: int = 10
    default_rank: int = 3
    systems: Tuple[str, ...] = (
        "double_pendulum",
        "triple_pendulum",
        "lorenz",
    )
    default_system: str = "double_pendulum"
    servers: Tuple[int, ...] = (1, 2, 4, 9, 18)
    pivot_fractions: Tuple[float, ...] = (1.0, 0.5, 0.25)
    free_fractions: Tuple[float, ...] = (1.0, 0.5, 0.25)
    budget_fraction_low: float = 0.1
    campaign_budget_fraction: float = 0.88
    pivots: Tuple[str, ...] = ("t", "phi1", "phi2", "m1", "m2")
    seed: int = 7

    def validate(self) -> None:
        if self.default_resolution < 4:
            raise ExperimentError("default_resolution must be >= 4")
        if self.default_rank < 1:
            raise ExperimentError("default_rank must be >= 1")
        if not self.resolutions or not self.ranks:
            raise ExperimentError("resolutions and ranks must be non-empty")
        if not 0.0 < self.campaign_budget_fraction <= 1.0:
            raise ExperimentError(
                "campaign_budget_fraction must be in (0, 1], got "
                f"{self.campaign_budget_fraction}"
            )


def default_config() -> ExperimentConfig:
    """Full laptop-scale configuration (minutes per table)."""
    return ExperimentConfig()


def quick_config() -> ExperimentConfig:
    """Smaller configuration for benchmarks and CI (seconds per table)."""
    return replace(
        default_config(),
        resolutions=(6, 8),
        ranks=(2, 3),
        default_resolution=8,
        default_rank=3,
        servers=(1, 4, 18),
    )


@dataclass
class StudyCache:
    """Memoize the expensive ground-truth construction per
    (system, resolution) — every scheme in a table shares it.

    With a :class:`~repro.runtime.Runtime` attached, study creation
    additionally goes through the runtime's content-addressed cache,
    so the memoization extends across experiment invocations (and,
    with a cache directory, across processes)."""

    runtime: Optional[Runtime] = None
    _studies: Dict[Tuple[str, int], EnsembleStudy] = field(default_factory=dict)

    def study(self, system_name: str, resolution: int) -> EnsembleStudy:
        key = (system_name, int(resolution))
        if key not in self._studies:
            self._studies[key] = EnsembleStudy.create(
                make_system(system_name), resolution, runtime=self.runtime
            )
        return self._studies[key]

    def clear(self) -> None:
        self._studies.clear()
