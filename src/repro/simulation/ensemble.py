"""Ensemble construction: from parameter-index selections to tensors.

Two cost vocabularies from the paper coexist here and must not be
conflated:

* a **simulation run** executes one parameter combination and yields
  the *entire time fiber* of the ensemble tensor (the paper's
  "2 x 70^2 simulations in just 46 seconds");
* a **cell** (the paper's "simulation instance" when counting budgets)
  is one ``(parameters, timestamp)`` entry of the tensor — the
  simulation budget ``B`` counts cells.

:class:`SimulationMeter` tracks both.  A study pays only for the runs
its samples touch: :class:`SimulationOracle` integrates a run the first
time any of its cells is asked for (all of a request's missing runs in
one batched integrator call) and serves every later read from memory.
The observation the distances are measured against is no separate run:
until its states are known, the true parameters ride each integration
as one more column, charged to nothing.  The full ground-truth tensor
``Y`` is for evaluation only; the oracle builds it on first use from the
same memo, so sampled cells and ``Y`` always agree bit for bit.
:func:`full_space_tensor` is the plain chunked construction of ``Y``,
kept as the oracle's reference.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..observability import get_metrics, span as _span
from .integrators import rk4_sampled
from .observation import Observation
from .parameter_space import ParameterSpace, index_rows

if TYPE_CHECKING:
    from ..runtime import Runtime


@dataclass
class SimulationMeter:
    """Accounting of simulation effort for one experiment.

    Attributes
    ----------
    runs:
        Distinct parameter combinations integrated.
    cells:
        Tensor cells filled (the paper's budget unit).
    wall_seconds:
        Time spent inside the integrator.
    """

    runs: int = 0
    cells: int = 0
    wall_seconds: float = 0.0

    def charge(self, runs: int, cells: int, wall_seconds: float) -> None:
        self.runs += int(runs)
        self.cells += int(cells)
        self.wall_seconds += float(wall_seconds)

    def merge(self, other: "SimulationMeter") -> None:
        self.charge(other.runs, other.cells, other.wall_seconds)


def simulate_fibers(
    space: ParameterSpace,
    observation: Observation,
    param_indices: np.ndarray,
    meter: Optional[SimulationMeter] = None,
) -> np.ndarray:
    """Distances for a batch of parameter combinations.

    Parameters
    ----------
    space:
        The discretized simulation space.
    observation:
        The reference configuration distances are measured against.
        One without states yet (``Observation(true_params)``) is
        integrated as one more column of this batch, and its states are
        recorded on it unchecked; that column is charged to nothing.
    param_indices:
        Index array of shape ``(B, n_params)``; one row per simulation
        run.  Each entry must be an in-range whole number, else
        :class:`SimulationError` (see :func:`index_rows`).
    meter:
        Optional accounting sink (charged ``B`` runs and ``B * T``
        cells).

    Returns
    -------
    numpy.ndarray
        Distance fibers of shape ``(B, time_resolution)``.
    """
    param_indices = index_rows(
        param_indices, space.shape[:-1], "param_indices", SimulationError
    )
    system = space.system
    batch = param_indices.shape[0]
    params = space.row_values(param_indices)
    pending = observation.states is None
    if pending:
        params = {
            name: np.append(values, observation.true_params[name])
            for name, values in params.items()
        }
    started = time.perf_counter()
    with _span("simulate-fibers", "simulate", system=system.name, batch=batch):
        sampled = rk4_sampled(
            system.derivative(params), system.initial_state(params),
            0.0, system.t_end, system.n_steps, space.time_indices,
        )  # (T, state_dim, B), plus the reference column if pending
    elapsed = time.perf_counter() - started
    if pending:
        observation.states = sampled[:, :, batch].copy()
        sampled = sampled[:, :, :batch]
    distances = observation.distances(sampled.transpose(0, 2, 1))  # (T, B)
    metrics = get_metrics()
    metrics.counter("simulate.runs").inc(batch)
    metrics.counter("simulate.cells").inc(batch * space.time_resolution)
    if meter is not None:
        meter.charge(
            runs=batch,
            cells=batch * space.time_resolution,
            wall_seconds=elapsed,
        )
    return distances.T


def full_space_tensor(
    space: ParameterSpace,
    observation: Observation,
    chunk_size: int = 4096,
    meter: Optional[SimulationMeter] = None,
) -> np.ndarray:
    """The complete ground-truth tensor ``Y`` (paper Section III-C).

    Every parameter combination is simulated (in batched chunks) and
    the per-timestamp distances to the observation fill a dense tensor
    of shape ``space.shape``.
    """
    if chunk_size < 1:
        raise SimulationError(f"chunk_size must be >= 1, got {chunk_size}")
    n_params = space.n_param_modes
    resolution = space.resolution
    total = space.n_simulations_full
    with _span(
        "full-space-tensor", "simulate",
        system=space.system.name, shape=space.shape, runs=total,
    ):
        tensor = np.empty(space.shape, dtype=np.float64)
        flat_view = tensor.reshape(total, space.time_resolution)
        all_indices = np.stack(
            np.unravel_index(np.arange(total), (resolution,) * n_params),
            axis=1,
        )
        for start in range(0, total, chunk_size):
            block = all_indices[start : start + chunk_size]
            flat_view[start : start + block.shape[0]] = simulate_fibers(
                space, observation, block, meter=meter
            )
        return tensor


class SimulationOracle:
    """Memoized simulator of one study's parameter space.

    Keyed by parameter-index row: the fiber of each run is integrated
    at most once into a dense ``(n_runs, T)`` buffer, and every later
    read comes from there.  A request integrates all of its missing
    runs in one :func:`simulate_fibers` call, because the integrator's
    per-step cost is mostly fixed (one pendulum run costs about 70% as
    much as 127).
    Every fiber is checked finite on its way into the buffer, which is
    the one place simulated values enter a study.

    An observation given without states (``Observation(true_params)``)
    costs no run of its own: each integration carries the true
    parameters as one more column until the observation's states are
    known, and that column is charged to nothing (the budget buys
    ensemble runs only).  The column is checked finite before any
    fiber, so a diverging reference fails as such, naming the system
    and the true parameters.

    Parameters
    ----------
    space, observation:
        What to simulate and what distances are measured against.
    meter:
        Charged for every run this oracle integrates, and for nothing
        else: reads of memoized or cached runs are free.
    runtime:
        With a runtime, each request is a content-addressed task keyed
        by ``cache_key`` plus a digest of the requested runs, so the
        same request on the same runtime (the same study built again,
        a resumed campaign re-reading its cells) integrates nothing.
        The full tensor is the ``ground-truth`` task keyed by
        ``cache_key`` alone; without a ``cache_key`` nothing is cached.
        A task's value is ``(reference states, fibers)``, so a cache
        hit also brings the observation's states.  Tasks run inline on
        the calling thread.

    Requests hold a lock, since campaign round graphs share one oracle
    across runtime threads.
    """

    def __init__(
        self,
        space: ParameterSpace,
        observation: Observation,
        meter: Optional[SimulationMeter] = None,
        runtime: Optional["Runtime"] = None,
        cache_key: Any = None,
    ):
        self.space = space
        self.meter = meter
        self.runtime = runtime
        self.cache_key = cache_key
        self._observation = observation
        self._grid = (space.resolution,) * space.n_param_modes
        n_runs = space.n_simulations_full
        self._fibers = np.empty((n_runs, space.time_resolution))
        self._simulated = np.zeros(n_runs, dtype=bool)
        self._lock = threading.Lock()

    @property
    def observation(self) -> Observation:
        """The observation with its states.  If no integration has
        carried them yet, the reference run is integrated alone (a
        batch of no runs, under a ``reference-run`` span)."""
        with self._lock:
            if self._observation.states is None:
                system = self.space.system
                runs = np.empty(0, dtype=np.int64)
                with _span("reference-run", "simulate", system=system.name):
                    self._fill(
                        runs, None, f"reference:{system.name}",
                        "simulation", self._batch_key(runs),
                    )
            return self._observation

    @property
    def n_simulated(self) -> int:
        """Runs held in the buffer so far."""
        return int(np.count_nonzero(self._simulated))

    def fibers(self, param_indices: np.ndarray) -> np.ndarray:
        """Distance fibers ``(B, T)`` for ``(B, n_params)`` index rows."""
        runs = self._runs(
            index_rows(
                param_indices, self._grid, "param_indices", SimulationError
            )
        )
        with self._lock:
            self._request(runs, None)
            return self._fibers[runs]

    def cells(
        self, coords: np.ndarray, meter: Optional[SimulationMeter] = None
    ) -> np.ndarray:
        """Values at full-tensor cell coordinates ``(nnz, n_modes)``
        (time mode last).  ``meter`` is charged the runs this call
        integrated, on top of the oracle's own meter."""
        coords = index_rows(coords, self.space.shape, "coords", SimulationError)
        runs = self._runs(coords[:, : self.space.n_param_modes])
        with self._lock:
            self._request(runs, meter)
            return self._fibers[runs, coords[:, self.space.time_mode]]

    def truth(self) -> np.ndarray:
        """The full-space tensor ``Y``: every run not yet simulated is
        integrated in one call (served by the ``ground-truth`` cache
        task when a runtime holds it)."""
        with self._lock:
            if not self._simulated.all():
                system = self.space.system
                self._fill(
                    np.arange(self._simulated.size), None,
                    f"ground-truth:{system.name}:r{self.space.resolution}",
                    "ground-truth", self.cache_key,
                )
            return self._fibers.reshape(self.space.shape)

    # ------------------------------------------------------------------
    def _runs(self, rows: np.ndarray) -> np.ndarray:
        """Flat run index of each (validated) parameter-index row."""
        return np.ravel_multi_index(tuple(rows.T), self._grid)

    def _batch_key(self, runs: np.ndarray) -> Any:
        # the cache fingerprints the run array itself (its digest)
        return None if self.cache_key is None else (self.cache_key, runs)

    def _request(
        self, runs: np.ndarray, meter: Optional[SimulationMeter]
    ) -> None:
        if self._simulated[runs].all():
            return
        runs = np.unique(runs)
        self._fill(
            runs, meter, f"simulate:{self.space.system.name}", "simulation",
            self._batch_key(runs),
        )

    def _fill(
        self, runs: np.ndarray, meter: Optional[SimulationMeter],
        name: str, cache_scope: str, cache_key: Any,
    ) -> None:
        """Bring ``runs`` into the buffer, and the reference states into
        the observation, through the runtime's cache when there is one.
        The caller holds the lock."""
        if self.runtime is None:
            states, fibers = self._simulate(runs, meter)
        else:
            states, fibers = self.runtime.call(
                name, self._simulate, runs, meter,
                cache_scope=cache_scope, cache_key=cache_key,
                affinity="inline",
            )
        system = self.space.system
        if not np.isfinite(states).all():
            raise SimulationError(
                f"{system.name}: reference run diverged (non-finite state) "
                f"at {self._observation.true_params}"
            )
        if self._observation.states is None:
            self._observation.states = states
        fibers = np.reshape(fibers, (runs.size, self.space.time_resolution))
        bad = ~np.isfinite(fibers).all(axis=1)
        if bad.any():
            run = int(runs[np.argmax(bad)])
            row = tuple(int(i) for i in np.unravel_index(run, self._grid))
            raise SimulationError(
                f"{system.name}: non-finite fiber for parameter "
                f"row {row} ({self.space.params_from_indices(row)})"
            )
        self._fibers[runs] = fibers
        self._simulated[runs] = True

    def _simulate(
        self, runs: np.ndarray, meter: Optional[SimulationMeter]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(reference states, fibers)`` of ``runs``: buffered fibers
        copied, the rest integrated in one batch, which carries the
        reference column while the observation has no states.  Leaves
        the oracle untouched (a cached result is checked and stored by
        :meth:`_fill`)."""
        fibers = self._fibers[runs]
        missing = ~self._simulated[runs]
        observation = self._observation
        if observation.states is None:
            # a copy: only a checked reference may settle the oracle's
            observation = Observation(observation.true_params)
        sink = SimulationMeter()
        rows = np.stack(np.unravel_index(runs[missing], self._grid), axis=1)
        fibers[missing] = simulate_fibers(
            self.space, observation, rows, meter=sink
        )
        if self.meter is not None:
            self.meter.merge(sink)
        if meter is not None and meter is not self.meter:
            meter.merge(sink)
        return observation.states, fibers
