"""The campaign orchestrator: sample → decompose → resample, phased.

A campaign closes the loop ROADMAP item 4 asks for.  Phase 0 is a
broad, low-replication **explore** sweep: a seeded fraction of each
sub-ensemble's free configurations is simulated at a few pivot cells
each, and a first M2TD model is fitted.  Every later round is a
focused **confirm** round:

1. *probe* — a seeded set of candidate configurations is simulated at
   one pivot index (only uncovered cells are charged), and the current
   stitched model's prediction is compared against each probe;
2. *score* — the absolute mismatch per candidate is the per-cell
   stitched-reconstruction-error signal;
3. *allocate* — the round batch is apportioned across candidates by
   :func:`repro.campaigns.allocator.allocate` (or evenly, for the
   ``"uniform"`` control), capped per candidate at its uncovered
   fiber cells and globally at the remaining budget;
4. *confirm* — the allocated cells are simulated and a new model is
   fitted on everything observed so far.

The campaign stops when a round's probe-metric improvement falls below
the spec's ``success_delta``, when the budget or the sample space is
exhausted, or at ``max_rounds``.

Every round executes as one :class:`~repro.runtime.graph.TaskGraph` on
a :class:`~repro.runtime.scheduler.Runtime` whose result cache lives
in the campaign workdir.  Each phase (explore, probe, confirm) makes
one request to the study's simulation oracle for both sub-ensembles'
cells; on the orchestrator's runtime the oracle caches each request
as a content-addressed task, so a round the journal lost re-runs off
that cache, and completed rounds replay from the journal (re-reading
their values in the same requests) without running any round graph.
Randomness derives from ``(spec.seed, round, ...)`` seed sequences
only — no serialized RNG state — so a resumed campaign finishes
byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.m2td import M2TDResult, m2td_decompose
from ..core.pipeline import EnsembleStudy
from ..exceptions import CampaignSpecError, CampaignStateError
from ..faults.injector import get_injector
from ..observability import get_metrics, span
from ..runtime import Runtime, TaskGraph, output
from ..runtime.report import RuntimeReport
from ..runtime.retry import RetryPolicy
from ..simulation import SimulationMeter, make_system
from ..tensor.sparse import SparseTensor
from .allocator import allocate
from .spec import CampaignSpec
from .state import CampaignJournal, JournalState, RoundRecord, journal_path

#: Per-task policy for round graphs: a transient failure (or an
#: injected ``runtime.task`` fault) retries quickly instead of killing
#: the campaign.
CAMPAIGN_RETRY = RetryPolicy(
    max_attempts=3, backoff_seconds=0.01, max_backoff_seconds=0.1
)


@dataclass
class CampaignOutcome:
    """What a finished (or resumed-to-finished) campaign hands back."""

    spec: CampaignSpec
    model: M2TDResult
    rounds: List[RoundRecord]
    stop_reason: str
    cells_simulated: int
    budget_remaining: int
    #: Rounds replayed from the journal rather than executed.
    replayed_rounds: int
    #: Round graphs' simulation tasks whose oracle request integrated
    #: at least one run vs. was served without integrating, across
    #: this call (replayed rounds run zero of either).
    executed_sim_tasks: int
    cached_sim_tasks: int
    reports: List[RuntimeReport] = field(default_factory=list)

    def payload(self) -> Tuple[bytes, Tuple[bytes, ...]]:
        """Byte-level identity of the final decomposition."""
        tucker = self.model.tucker
        return (
            tucker.core.tobytes(),
            tuple(f.tobytes() for f in tucker.factors),
        )

    def accuracy(self, truth: np.ndarray) -> float:
        return self.model.accuracy(truth)


class _Request(NamedTuple):
    """One oracle request: each side's values, and the runs it
    integrated (0 when the buffer or the cache served it)."""

    values: Dict[int, np.ndarray]
    runs: int


class CampaignOrchestrator:
    """Drive one :class:`CampaignSpec` to completion on a study.

    Parameters
    ----------
    spec:
        The validated campaign specification.
    workdir:
        Directory holding the journal and the on-disk result cache;
        ``None`` runs ephemerally (no resume, memory-only cache).
    runtime:
        Externally owned :class:`Runtime`; by default the orchestrator
        builds a single-worker runtime whose cache tier lives under
        ``<workdir>/cache``.
    study:
        Pre-built study (tests and benches share one, and runs it has
        already simulated cost the campaign nothing); it must be of the
        spec's scenario and resolution, since the spec fingerprint keys
        the journal.  The oracle's requests are cached only when the
        study sits on a runtime (keyed by the study's own cache key:
        true parameters, time resolution, cache version), so a study
        built without one integrates its runs again on resume.  By
        default the scenario study is built on the runtime, so its
        simulation batches are cached tasks.
    truth_metrics:
        Record an evaluation-only ``truth_rmse`` per round (golden
        convergence pins); never consulted by any decision.  Only
        this builds the study's full ground truth.
    meter:
        Charged the runs the campaign's cells make the study's oracle
        integrate (evaluation-only truth builds are not charged).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        workdir: Optional[str] = None,
        runtime: Optional[Runtime] = None,
        study: Optional[EnsembleStudy] = None,
        truth_metrics: bool = False,
        meter: Optional[SimulationMeter] = None,
    ):
        self.spec = spec
        self.workdir = workdir
        self.truth_metrics = bool(truth_metrics)
        self.meter = meter if meter is not None else SimulationMeter()
        self._owns_runtime = runtime is None
        if runtime is None:
            cache_dir = (
                os.path.join(workdir, "cache") if workdir else None
            )
            runtime = Runtime(
                workers=1, cache_dir=cache_dir,
                default_retry=CAMPAIGN_RETRY,
            )
        self.runtime = runtime
        if study is None:
            study = EnsembleStudy.create(
                make_system(spec.scenario), spec.resolution, runtime=runtime
            )
        elif study.space.system.name != spec.scenario:
            raise CampaignSpecError(
                "scenario",
                f"study simulates {study.space.system.name!r}, not the "
                f"spec's {spec.scenario!r}",
            )
        elif study.space.resolution != spec.resolution:
            raise CampaignSpecError(
                "resolution",
                f"study has resolution {study.space.resolution}, not the "
                f"spec's {spec.resolution}",
            )
        self.study = study
        self.partition = study.default_partition(pivot=spec.pivot)
        self._fingerprint = spec.fingerprint()
        self.journal = CampaignJournal(journal_path(workdir), spec.name)

        self._pivot_size = self.partition.pivot_space_size
        self._pivot_shape = tuple(self.partition.pivot_shape)
        self._free_size = {
            1: self.partition.free_space_size(1),
            2: self.partition.free_space_size(2),
        }
        self._free_shape = {
            1: tuple(self.partition.free_shape(1)),
            2: tuple(self.partition.free_shape(2)),
        }
        # Flat free index of each side's fixing constants: where the
        # *other* side's cells sit in the stitched join space.
        self._fixing_flat = {
            which: int(np.ravel_multi_index(
                tuple(self.partition.fixed_indices[m] for m in modes),
                self._free_shape[which],
            ))
            for which, modes in (
                (1, self.partition.s1_free), (2, self.partition.s2_free)
            )
        }
        # Coverage: which (free config, pivot cell) pairs have been
        # simulated, and their values.  Merging is idempotent, so task
        # retries and journal replay can re-apply safely.
        self._mask = {
            which: np.zeros(
                (self._free_size[which], self._pivot_size), dtype=bool
            )
            for which in (1, 2)
        }
        self._values = {
            which: np.zeros(
                (self._free_size[which], self._pivot_size)
            )
            for which in (1, 2)
        }
        self._pivot_orders: Dict[Tuple[int, int], np.ndarray] = {}
        self._records: List[RoundRecord] = []
        self._reports: List[RuntimeReport] = []
        #: Runs integrated by each round-graph oracle request.
        self._request_runs: List[int] = []
        self._model: Optional[M2TDResult] = None
        self._check_explore_feasible()

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _rng(self, *tags: int) -> np.random.Generator:
        return np.random.default_rng(
            (0xCA3A1607, self.spec.seed) + tuple(int(t) for t in tags)
        )

    def _explore_count(self, which: int) -> int:
        return max(
            1,
            int(round(self.spec.explore_fraction * self._free_size[which])),
        )

    def _check_explore_feasible(self) -> None:
        cost = sum(
            self._explore_count(which) * min(
                self.spec.explore_replicates, self._pivot_size
            )
            for which in (1, 2)
        )
        if cost > self.spec.budget:
            raise CampaignSpecError(
                "budget",
                f"budget {self.spec.budget} cannot pay for the explore "
                f"sweep ({cost} cells at explore_fraction="
                f"{self.spec.explore_fraction}, explore_replicates="
                f"{self.spec.explore_replicates})",
            )

    def _sub_coords(
        self, which: int, cells: List[Tuple[int, int]]
    ) -> np.ndarray:
        """Sub-space coordinates for (free_flat, pivot_flat) pairs.

        Sub-tensor mode order is pivot modes first, then free modes
        (the layout ``PFPartition.sub_shape`` defines).
        """
        if not cells:
            return np.zeros(
                (0, len(self._pivot_shape) + len(self._free_shape[which])),
                dtype=int,
            )
        free_flat = np.array([f for f, _ in cells], dtype=int)
        pivot_flat = np.array([p for _, p in cells], dtype=int)
        pivot_coords = np.stack(
            np.unravel_index(pivot_flat, self._pivot_shape), axis=1
        )
        free_coords = np.stack(
            np.unravel_index(free_flat, self._free_shape[which]), axis=1
        )
        return np.hstack([pivot_coords, free_coords])

    def _simulate_cells(
        self, cells: Dict[int, List[Tuple[int, int]]]
    ) -> _Request:
        """Simulate both sides' cells in one request to the study's
        oracle, which integrates (and charges the meter for) only the
        runs it has not simulated yet."""
        full = np.vstack([
            self.partition.embed_coords(
                which, self._sub_coords(which, cells[which])
            )
            for which in (1, 2)
        ])
        oracle = self.study.oracle
        sink = SimulationMeter()
        values = oracle.cells(full, meter=sink)
        if self.meter is not oracle.meter:
            self.meter.merge(sink)
        side1, side2 = np.split(values, [len(cells[1])])
        return _Request({1: side1, 2: side2}, sink.runs)

    def _merge(
        self, cells: Dict[int, List[Tuple[int, int]]], request: _Request
    ) -> None:
        for which in (1, 2):
            for (f, p), v in zip(cells[which], request.values[which]):
                self._values[which][f, p] = v
                self._mask[which][f, p] = True

    def _observed_tensor(self, which: int) -> SparseTensor:
        # (pivot, free) coverage in C order is the sub-space layout
        shape = self.partition.sub_shape(which)
        mask = self._mask[which].T.reshape(shape)
        values = self._values[which].T.reshape(shape)[mask]
        return SparseTensor(shape, np.argwhere(mask), values)

    def _fit(self) -> M2TDResult:
        ranks = [self.spec.rank] * self.partition.n_modes
        return m2td_decompose(
            self._observed_tensor(1),
            self._observed_tensor(2),
            self.partition,
            ranks,
            variant=self.spec.variant,
        )

    def _truth_rmse(self, model: M2TDResult) -> float:
        approx = model.reconstruct_original()
        truth = self.study.truth
        return float(
            np.linalg.norm((approx - truth).ravel())
            / math.sqrt(truth.size)
        )

    @property
    def spent(self) -> int:
        return self._records[-1].spent_after if self._records else 0

    @property
    def remaining(self) -> int:
        return max(0, self.spec.budget - self.spent)

    def _metric(self, residuals: np.ndarray) -> float:
        if residuals.size == 0:
            return 0.0
        if self.spec.metric == "max-error":
            return float(np.max(residuals))
        return float(np.sqrt(np.mean(np.square(residuals))))

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def _round_target(self, index: int) -> str:
        return f"{self.spec.name}/round-{index}"

    def _fire_round_site(self, index: int) -> None:
        injector = get_injector()
        if injector.enabled:
            injector.fire("campaign.round", self._round_target(index))

    def _record(self, record: RoundRecord) -> None:
        self._records.append(record)
        self.journal.append_round(record)
        metrics = get_metrics()
        metrics.counter("campaign.rounds").inc()
        cells = record.probe_cost + record.alloc_cells
        metrics.counter("campaign.cells_simulated").inc(cells)
        metrics.gauge("campaign.budget_remaining").set(self.remaining)
        get_injector().note_recovery(
            "campaign.round", self._round_target(record.index)
        )

    def _run_round_graph(self, graph: TaskGraph, *simulate: str):
        """Run one round graph; ``simulate`` names its oracle-request
        tasks, whose integrated runs the outcome's ``executed_sim_tasks``
        and ``cached_sim_tasks`` count."""
        outcome = self.runtime.run(graph)
        self._reports.append(outcome.report)
        self._request_runs.extend(outcome[name].runs for name in simulate)
        return outcome

    def _explore_round(self) -> None:
        self._fire_round_site(0)
        replicates = min(self.spec.explore_replicates, self._pivot_size)
        plan: Dict[int, List[Tuple[int, int]]] = {}
        for which in (1, 2):
            configs = np.sort(self._rng(0, which, 1).choice(
                self._free_size[which],
                size=self._explore_count(which),
                replace=False,
            ))
            pivots = self._rng(0, which, 2).permutation(
                self._pivot_size
            )[:replicates]
            plan[which] = [
                (int(f), int(p)) for f in configs for p in np.sort(pivots)
            ]
        graph = TaskGraph()
        graph.add("round-0:simulate", self._simulate_cells, plan)

        def fit_and_merge(request):
            self._merge(plan, request)
            return self._fit()

        graph.add("round-0:fit", fit_and_merge, output("round-0:simulate"))
        outcome = self._run_round_graph(graph, "round-0:simulate")
        self._model = outcome["round-0:fit"]
        cost = len(plan[1]) + len(plan[2])
        # In-sample residual of the first model (reported; the stop
        # rule only compares confirm-round probe metrics).
        reconstruction = self._model.tucker.reconstruct()
        residuals = np.concatenate([
            np.abs(
                self._values[which][self._mask[which]]
                - self._model_values(reconstruction, which)
            )
            for which in (1, 2)
        ])
        record = RoundRecord(
            index=0,
            phase="explore",
            probe_pivot=-1,
            new_cells={
                str(which): [[f, p] for f, p in plan[which]]
                for which in (1, 2)
            },
            probe_cost=0,
            alloc_cells=cost,
            metric=self._metric(residuals),
            spent_after=cost,
            truth_rmse=(
                self._truth_rmse(self._model)
                if self.truth_metrics else None
            ),
        )
        self._record(record)

    def _predict_cells(
        self,
        reconstruction: np.ndarray,
        which: int,
        free_flat: np.ndarray,
        pivot_flat: int,
    ) -> np.ndarray:
        """Stitched-model predictions for one side's cells at one pivot
        configuration — the per-cell reconstruction oracle that probe
        residuals are measured against.  ``reconstruction`` is the
        model's dense join-space tensor, built once per scoring pass."""
        pivot_index = np.unravel_index(pivot_flat, self._pivot_shape)
        block = reconstruction[pivot_index].reshape(
            self._free_size[1], self._free_size[2]
        )
        if which == 1:
            return block[free_flat, self._fixing_flat[2]]
        return block[self._fixing_flat[1], free_flat]

    def _model_values(
        self, reconstruction: np.ndarray, which: int
    ) -> np.ndarray:
        """Model predictions at every observed cell of one side."""
        free_flat, pivot_flat = np.nonzero(self._mask[which])
        predictions = np.empty(free_flat.shape[0])
        for pivot in np.unique(pivot_flat):
            rows = pivot_flat == pivot
            predictions[rows] = self._predict_cells(
                reconstruction, which, free_flat[rows], int(pivot)
            )
        return predictions

    def _probe_pivot(self, reconstruction: np.ndarray, index: int) -> int:
        """Pick the pivot cell confirm-round probes are simulated at.

        Probing a near-silent pivot slice (an epidemic's early time
        steps, say) would hand the allocator an all-zero error signal,
        so rounds probe the *loudest* slices of the current model: the
        pivot cells ranked by reconstructed energy, round-robin over
        the top half.  Deterministic given the round history — replay
        recomputes the same pivot without the journal storing it.
        """
        energy = np.abs(
            reconstruction.reshape(self._pivot_size, -1)
        ).sum(axis=1)
        ranked = np.argsort(-energy, kind="stable")
        top = max(1, self._pivot_size // 2)
        return int(ranked[(index - 1) % top])

    def _candidates(self, which: int) -> np.ndarray:
        uncovered = self._mask[which].sum(axis=1) < self._pivot_size
        return np.nonzero(uncovered)[0]

    def _confirm_round(self, index: int) -> None:
        self._fire_round_site(index)
        assert self._model is not None
        spec = self.spec
        reconstruction = self._model.tucker.reconstruct()
        probe_pivot = self._probe_pivot(reconstruction, index)
        slots = max(1, math.ceil(spec.batch / (2 * self._pivot_size)))
        remaining = self.remaining
        probe_configs: Dict[int, np.ndarray] = {}
        probe_new: Dict[int, List[Tuple[int, int]]] = {}
        probe_cost = 0
        for which in (1, 2):
            candidates = self._candidates(which)
            n_probe = min(
                candidates.shape[0], spec.probe_factor * slots
            )
            chosen = np.sort(self._rng(index, which, 1).choice(
                candidates, size=n_probe, replace=False
            )) if n_probe else np.zeros(0, dtype=int)
            # Only uncovered probe cells charge the budget; trim so the
            # probe phase alone can never overdraw it.
            fresh = [
                (int(f), probe_pivot)
                for f in chosen
                if not self._mask[which][int(f), probe_pivot]
            ]
            affordable = max(0, remaining - probe_cost)
            fresh = fresh[:affordable]
            probe_new[which] = fresh
            probe_cost += len(fresh)
            probe_configs[which] = chosen
        graph = TaskGraph()
        graph.add(f"round-{index}:probe", self._simulate_cells, probe_new)

        def plan_round(probes):
            self._merge(probe_new, probes)
            errors: Dict[int, np.ndarray] = {}
            for which in (1, 2):
                configs = probe_configs[which]
                observed = self._values[which][configs, probe_pivot]
                predicted = self._predict_cells(
                    reconstruction, which, configs, probe_pivot
                )
                errors[which] = np.abs(observed - predicted)
            residuals = np.concatenate([errors[1], errors[2]])
            weights = (
                residuals if spec.allocation == "adaptive"
                else np.ones_like(residuals)
            )
            capacities = np.concatenate([
                self._pivot_size
                - self._mask[which][probe_configs[which]].sum(axis=1)
                for which in (1, 2)
            ]).astype(int)
            shares = allocate(
                weights,
                spec.batch,
                remaining_budget=remaining - probe_cost,
                capacities=capacities,
            )
            split = np.split(shares, [probe_configs[1].shape[0]])
            confirm_cells: Dict[int, List[Tuple[int, int]]] = {}
            for which, side_shares in zip((1, 2), split):
                cells: List[Tuple[int, int]] = []
                for config, count in zip(
                    probe_configs[which], side_shares
                ):
                    if count <= 0:
                        continue
                    # Stable per-config pivot order: seeded by (side,
                    # config) only, so it never shifts across rounds
                    # and is drawn once.
                    config = int(config)
                    order = self._pivot_orders.get((which, config))
                    if order is None:
                        order = self._rng(which, config, 4).permutation(
                            self._pivot_size
                        )
                        self._pivot_orders[which, config] = order
                    fresh = order[~self._mask[which][config, order]]
                    cells.extend((config, p) for p in fresh[: int(count)].tolist())
                confirm_cells[which] = cells
            return {
                "metric": self._metric(residuals),
                "confirm": confirm_cells,
            }

        graph.add(
            f"round-{index}:plan", plan_round, output(f"round-{index}:probe")
        )
        graph.add(
            f"round-{index}:confirm",
            lambda plan: self._simulate_cells(plan["confirm"]),
            output(f"round-{index}:plan"),
        )

        def fit_round(plan, confirmed):
            self._merge(plan["confirm"], confirmed)
            return self._fit()

        graph.add(
            f"round-{index}:fit",
            fit_round,
            output(f"round-{index}:plan"),
            output(f"round-{index}:confirm"),
        )
        outcome = self._run_round_graph(
            graph, f"round-{index}:probe", f"round-{index}:confirm"
        )
        plan = outcome[f"round-{index}:plan"]
        self._model = outcome[f"round-{index}:fit"]
        alloc_cells = sum(
            len(cells) for cells in plan["confirm"].values()
        )
        new_cells = {
            str(which): sorted(
                [[f, p] for f, p in probe_new[which]]
                + [[f, p] for f, p in plan["confirm"][which]]
            )
            for which in (1, 2)
        }
        record = RoundRecord(
            index=index,
            phase="confirm",
            probe_pivot=probe_pivot,
            new_cells=new_cells,
            probe_cost=probe_cost,
            alloc_cells=alloc_cells,
            metric=plan["metric"],
            spent_after=self.spent + probe_cost + alloc_cells,
            truth_rmse=(
                self._truth_rmse(self._model)
                if self.truth_metrics else None
            ),
        )
        self._record(record)

    # ------------------------------------------------------------------
    # stop rule
    # ------------------------------------------------------------------
    def _stop_reason(self) -> Optional[str]:
        """Pure function of the round records, so an interrupted and a
        continuous run always agree."""
        confirm = [r for r in self._records if r.phase == "confirm"]
        if len(confirm) >= 2:
            # Probe metrics are noisy (each round probes different
            # configurations), so convergence means *stabilized*: the
            # metric moved by less than the success delta, in either
            # direction.
            movement = abs(confirm[-2].metric - confirm[-1].metric)
            if movement < self.spec.success_delta:
                return "converged"
        if self.remaining <= 0:
            return "budget-exhausted"
        if confirm and confirm[-1].probe_cost + confirm[-1].alloc_cells == 0:
            return "space-exhausted"
        if not (
            self._candidates(1).size or self._candidates(2).size
        ):
            return "space-exhausted"
        if len(confirm) >= self.spec.max_rounds:
            return "max-rounds"
        return None

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def _replay(self, state: JournalState) -> None:
        for record in state.rounds:
            cells = {
                which: [
                    (int(f), int(p))
                    for f, p in record.new_cells[str(which)]
                ]
                for which in (1, 2)
            }
            # The journal stores coordinates only, so values are re-read
            # from the oracle, in the requests the round made: explore
            # is one request; a confirm round's probes (all at its probe
            # pivot, where confirm cells never fall) then its confirm
            # cells, both sides each time.  Each request then hits the
            # oracle's cached batch instead of simulating again.
            groups = [cells]
            if record.phase == "confirm":
                pivot = record.probe_pivot
                groups = [
                    {w: [c for c in side if c[1] == pivot]
                     for w, side in cells.items()},
                    {w: [c for c in side if c[1] != pivot]
                     for w, side in cells.items()},
                ]
            for group in groups:
                if group[1] or group[2]:
                    self._merge(group, self._simulate_cells(group))
            self._records.append(record)
        if self._records:
            self._model = self._fit()

    # ------------------------------------------------------------------
    # public entrypoints
    # ------------------------------------------------------------------
    def run(self) -> CampaignOutcome:
        """Run the campaign from scratch (refuses prior progress)."""
        state = self.journal.load()
        if state.rounds or state.done:
            raise CampaignStateError(
                f"workdir already holds {len(state.rounds)} completed "
                "round(s) of this campaign; use resume"
            )
        return self._drive(state)

    def resume(self) -> CampaignOutcome:
        """Continue from the journal (a fresh start when it is empty)."""
        state = self.journal.load()
        if (
            state.fingerprint is not None
            and state.fingerprint != self._fingerprint
        ):
            raise CampaignStateError(
                "journal belongs to a different campaign spec "
                f"(journal fingerprint {state.fingerprint}, spec "
                f"fingerprint {self._fingerprint})"
            )
        return self._drive(state)

    def _traced_round(
        self, index: int, phase: str, run_round: Callable[[], None]
    ) -> None:
        """Run one round under a ``round-<i>`` span that carries the
        round's decisions (probe pivot, costs, metric, spend)."""
        with span(f"round-{index}", "campaign", phase=phase) as sp:
            run_round()
            record = self._records[-1]
            sp.set(
                probe_pivot=record.probe_pivot,
                probe_cost=record.probe_cost,
                alloc_cells=record.alloc_cells,
                metric=record.metric,
                spent_after=record.spent_after,
            )

    def _drive(self, state: JournalState) -> CampaignOutcome:
        with span(
            f"campaign:{self.spec.name}", "campaign",
            scenario=self.spec.scenario, budget=self.spec.budget,
            allocation=self.spec.allocation,
        ):
            self.journal.start(self._fingerprint, self.spec.as_dict())
            self._replay(state)
            replayed = len(state.rounds)
            stop_reason = state.stop_reason
            if stop_reason is None:
                if not self._records:
                    self._traced_round(0, "explore", self._explore_round)
                stop_reason = self._stop_reason()
                while stop_reason is None:
                    index = len(self._records)
                    self._traced_round(
                        index, "confirm", lambda: self._confirm_round(index)
                    )
                    stop_reason = self._stop_reason()
                last = self._records[-1]
                self.journal.append_stop(
                    stop_reason, last.spent_after, last.metric
                )
            executed = sum(1 for runs in self._request_runs if runs)
            assert self._model is not None
            get_metrics().gauge("campaign.budget_remaining").set(
                self.remaining
            )
            return CampaignOutcome(
                spec=self.spec,
                model=self._model,
                rounds=list(self._records),
                stop_reason=stop_reason,
                cells_simulated=self.spent,
                budget_remaining=self.remaining,
                replayed_rounds=replayed,
                executed_sim_tasks=executed,
                cached_sim_tasks=len(self._request_runs) - executed,
                reports=list(self._reports),
            )

    def close(self) -> None:
        """Shut down the orchestrator-owned runtime (no-op otherwise)."""
        if self._owns_runtime:
            self.runtime.shutdown()

    def __enter__(self) -> "CampaignOrchestrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
