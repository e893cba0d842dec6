"""End-to-end ensemble studies: the library's primary high-level API.

An :class:`EnsembleStudy` owns one (system, resolution) simulation
space, simulates only the runs its samples touch, and exposes the two
competing workflows of the paper:

* :meth:`EnsembleStudy.run_conventional` — sample the full space with
  a conventional scheme (Random/Grid/Slice) and HOSVD the sparse
  ensemble (Section IV);
* :meth:`EnsembleStudy.run_m2td` — PF-partition the space, sample two
  dense sub-ensembles, JE-stitch and decompose with an M2TD variant
  (Sections V-VI).

Both return a :class:`StudyResult` carrying the paper's reporting
quantities (accuracy, decomposition time, budget consumed).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SamplingError
from ..observability import span as _span
from ..runtime import Runtime
from ..sampling.base import Sampler
from ..sampling.budget import PartitionBudget, budget_for_fractions
from ..sampling.partition import PFPartition
from ..sampling.sub_ensemble import select_sub_ensembles
from ..simulation.ensemble import SimulationMeter, SimulationOracle
from ..simulation.observation import Observation, true_parameters
from ..simulation.parameter_space import ParameterSpace
from ..simulation.systems import DynamicalSystem
from ..tensor.random import SeedLike, make_rng
from ..tensor.sparse import SparseTensor
from ..tensor.tucker import TuckerTensor
from .evaluation import decompose_sample
from .m2td import M2TDResult, m2td_decompose

logger = logging.getLogger(__name__)


@dataclass
class StudyResult:
    """One scheme's outcome on one study configuration."""

    scheme: str
    accuracy: float
    decompose_seconds: float
    cells: int
    runs: int
    density: float
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    join_nnz: int = 0
    m2td: Optional[M2TDResult] = None
    #: The fitted decomposition (conventional schemes); M2TD runs carry
    #: theirs inside ``m2td.tucker`` (join mode order).
    tucker: Optional["TuckerTensor"] = None

    def row(self) -> Dict[str, object]:
        """Flat dict for table reporting."""
        return {
            "scheme": self.scheme,
            "accuracy": self.accuracy,
            "seconds": self.decompose_seconds,
            "cells": self.cells,
            "runs": self.runs,
            "density": self.density,
        }


def _count_runs(coords: np.ndarray, time_mode: int) -> int:
    if coords.shape[0] == 0:
        return 0
    param_modes = [m for m in range(coords.shape[1]) if m != time_mode]
    return int(np.unique(coords[:, param_modes], axis=0).shape[0])


@dataclass
class EnsembleStudy:
    """A simulation space and the oracle that simulates it against the
    study's observation, plus helpers for running competing schemes on
    it.

    Samples read their cells through :attr:`oracle`, which integrates
    only the runs they touch, and the observation's reference run as
    one more column of the first such batch; :attr:`truth` is for
    evaluation and is built on first use."""

    #: Version of what the oracle's cache tasks hold: bump it whenever
    #: a cached value would change, in its bits or in its format, so an
    #: older on-disk cache is a miss instead of a wrong hit.  Version 1:
    #: ``(reference states, fibers)`` values, the triple pendulum's
    #: reference run on its batched right-hand side.
    _CACHE_VERSION = 1

    space: ParameterSpace
    oracle: SimulationOracle

    @classmethod
    def create(
        cls,
        system: DynamicalSystem,
        resolution: int,
        time_resolution: Optional[int] = None,
        true_params: Optional[Dict[str, float]] = None,
        runtime: Optional[Runtime] = None,
        meter: Optional[SimulationMeter] = None,
    ) -> "EnsembleStudy":
        """Set up the study: discretize the space and validate the true
        parameters.  Nothing is integrated here, neither an ensemble
        run nor the reference run: the oracle integrates the reference
        as one more column of its first batch.

        The study's oracle integrates runs as schemes sample them and
        charges ``meter`` for exactly those (never for the reference
        column).  With a ``runtime`` its batches and the
        evaluation-only ground truth are content-addressed cache tasks
        keyed by (system, resolution, time_resolution, true_params):
        the same study built again reuses them, and the observation
        with them -- across processes, with the runtime's
        ``cache_dir`` -- and the ``meter`` is charged zero runs.
        """
        space = ParameterSpace(
            system, resolution, time_resolution=time_resolution
        )
        observation = Observation(true_parameters(space, true_params))
        oracle = SimulationOracle(
            space, observation, meter=meter, runtime=runtime,
            cache_key=cls._truth_cache_key(space, true_params),
        )
        return cls(space=space, oracle=oracle)

    @property
    def observation(self) -> Observation:
        """The observation, with its states (integrated alone, under a
        ``reference-run`` span, if read before any batch ran)."""
        return self.oracle.observation

    @property
    def truth(self) -> np.ndarray:
        """The full-space ground-truth tensor ``Y`` (evaluation only;
        every run the samples did not touch is simulated on first
        use)."""
        return self.oracle.truth()

    @classmethod
    def _truth_cache_key(
        cls, space: ParameterSpace, true_params: Optional[Dict[str, float]]
    ) -> Tuple:
        """Content key for the ground-truth tensor (and, with a digest
        of the runs, for each oracle batch).

        Parameter ranges are included so two systems sharing a name
        but differing in grids never collide, and the cache version so
        that values of older code never match.
        """
        system = space.system
        param_defs = tuple(
            (p.name, float(p.low), float(p.high), float(p.default))
            for p in system.parameters
        )
        return (
            cls._CACHE_VERSION,
            system.name,
            tuple(space.shape),
            int(space.time_resolution),
            float(system.t_end),
            int(system.n_steps),
            param_defs,
            tuple(sorted((true_params or {}).items())),
        )

    # ------------------------------------------------------------------
    # conventional schemes
    # ------------------------------------------------------------------
    def run_conventional(
        self,
        sampler: Sampler,
        budget_cells: int,
        ranks: Sequence[int],
    ) -> StudyResult:
        """Sample-then-decompose with a Section IV baseline scheme."""
        with _span(
            "conventional-sample", "sample",
            sampler=sampler.name, budget_cells=budget_cells,
        ):
            sample = sampler.sample(self.space.shape, budget_cells)
        baseline = decompose_sample(self.truth, sample, ranks)
        return StudyResult(
            scheme=sampler.name,
            accuracy=baseline.accuracy(self.truth),
            decompose_seconds=baseline.decompose_seconds,
            cells=sample.n_cells,
            runs=sample.n_runs(self.space.time_mode),
            density=sample.density,
            tucker=baseline.tucker,
        )

    # ------------------------------------------------------------------
    # partition-stitch + M2TD
    # ------------------------------------------------------------------
    def default_partition(self, pivot: str = "t", **kwargs) -> PFPartition:
        """The study's PF-partition for a named pivot mode."""
        return PFPartition.for_space(self.space, pivot=pivot, **kwargs)

    def sub_tensor_from_coords(
        self, partition: PFPartition, which: int, sub_coords: np.ndarray
    ) -> SparseTensor:
        """Sub-ensemble tensor with values simulated by the oracle."""
        full_coords = partition.embed_coords(which, sub_coords)
        values = self.oracle.cells(full_coords)
        return SparseTensor(partition.sub_shape(which), sub_coords, values)

    def sample_sub_ensembles(
        self,
        partition: PFPartition,
        budget: PartitionBudget,
        sub_sampling: str = "cross",
        seed: SeedLike = None,
    ) -> Tuple[SparseTensor, SparseTensor, int, int]:
        """Materialize both sub-ensemble tensors.

        ``sub_sampling="cross"`` is the structured protocol of Section
        V-B (shared pivot configs x free configs); ``"random"`` draws
        the same number of cells uniformly within each sub-space — the
        low-budget regime of Table V where zero-join earns its keep.

        Both sub-ensembles' runs are simulated in one oracle request.

        Returns ``(x1, x2, cells, runs)``.
        """
        if sub_sampling == "cross":
            selection = select_sub_ensembles(partition, budget, seed=seed)
            coords1 = selection.sub_coords(1)
            coords2 = selection.sub_coords(2)
        elif sub_sampling == "random":
            rng = make_rng(seed)
            coords1 = self._random_sub_coords(
                partition, 1, budget.n_pivot * budget.n_free1, rng
            )
            coords2 = self._random_sub_coords(
                partition, 2, budget.n_pivot * budget.n_free2, rng
            )
        else:
            raise SamplingError(
                f"sub_sampling must be 'cross' or 'random', got {sub_sampling!r}"
            )
        full = np.vstack(
            [
                partition.embed_coords(1, coords1),
                partition.embed_coords(2, coords2),
            ]
        )
        values = self.oracle.cells(full)
        n1 = coords1.shape[0]
        x1 = SparseTensor(partition.sub_shape(1), coords1, values[:n1])
        x2 = SparseTensor(partition.sub_shape(2), coords2, values[n1:])
        cells = full.shape[0]
        runs = _count_runs(full, self.space.time_mode)
        return x1, x2, cells, runs

    @staticmethod
    def _random_sub_coords(
        partition: PFPartition,
        which: int,
        n_cells: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        shape = partition.sub_shape(which)
        size = int(np.prod(shape))
        n_cells = min(n_cells, size)
        flat = rng.choice(size, size=n_cells, replace=False)
        return np.stack(np.unravel_index(flat, shape), axis=1)

    def run_m2td(
        self,
        ranks: Sequence[int],
        variant: str = "select",
        pivot: str = "t",
        pivot_fraction: float = 1.0,
        free_fraction: float = 1.0,
        join_kind: str = "join",
        sub_sampling: str = "cross",
        partition: Optional[PFPartition] = None,
        seed: SeedLike = None,
    ) -> StudyResult:
        """Full partition-stitch + M2TD workflow.

        The effective simulation budget is
        ``2 * P * E = 2 * pivot_fraction * free_fraction`` of the two
        sub-spaces; pass the result's ``cells`` to a conventional
        scheme for a budget-matched comparison.
        """
        if partition is None:
            partition = self.default_partition(pivot=pivot)
        budget = budget_for_fractions(
            partition, pivot_fraction=pivot_fraction, free_fraction=free_fraction
        )
        with _span(
            "sample-sub-ensembles", "sample",
            pivot=pivot, sub_sampling=sub_sampling,
        ) as sample_span:
            x1, x2, cells, runs = self.sample_sub_ensembles(
                partition, budget, sub_sampling=sub_sampling, seed=seed
            )
            sample_span.set(cells=cells, runs=runs)
        started = time.perf_counter()
        result = m2td_decompose(
            x1,
            x2,
            partition,
            ranks,
            variant=variant,
            join_kind=join_kind,
        )
        elapsed = time.perf_counter() - started
        logger.debug(
            "M2TD-%s: %d cells, join nnz %d, %.3fs",
            variant.upper(),
            cells,
            result.join_nnz,
            elapsed,
        )
        return StudyResult(
            scheme=f"M2TD-{variant.upper()}",
            accuracy=result.accuracy(self.truth),
            decompose_seconds=elapsed,
            cells=cells,
            runs=runs,
            density=cells / self.space.n_cells_full,
            phase_seconds=dict(result.phase_seconds),
            join_nnz=result.join_nnz,
            m2td=result,
        )

    def matched_budget(
        self,
        pivot: str = "t",
        pivot_fraction: float = 1.0,
        free_fraction: float = 1.0,
        partition: Optional[PFPartition] = None,
    ) -> int:
        """Cell budget the M2TD configuration consumes — what the
        conventional baselines receive for a fair comparison."""
        if partition is None:
            partition = self.default_partition(pivot=pivot)
        budget = budget_for_fractions(
            partition, pivot_fraction=pivot_fraction, free_fraction=free_fraction
        )
        return budget.cells
