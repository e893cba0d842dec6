"""SimulationOracle: a study simulates only the runs its samples touch.

The oracle's fibers must equal the plain full-space construction bit
for bit whatever the batching, the lazy ground truth must equal it
byte for byte, a runtime must make repeated requests free, concurrent
requests must integrate each run once, and a non-finite fiber must
fail loudly, naming its parameter row (a non-finite reference run,
its system).
"""

import numpy as np
import pytest

from repro.core import EnsembleStudy
from repro.exceptions import SimulationError
from repro.runtime import Runtime, TaskGraph
from repro.sampling import RandomSampler, budget_for_fractions
from repro.simulation import (
    SYSTEMS,
    DoublePendulum,
    Lorenz,
    ParameterSpace,
    SimulationMeter,
    full_space_tensor,
    make_observation,
)
from repro.simulation import ensemble as ensemble_module
from repro.simulation.ensemble import SimulationOracle


def _resolution(system):
    """At least 600 runs, so every batch size below fits."""
    return 5 if system.n_parameters == 4 else 4


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def reference(request):
    """``(space, observation, flat full-space fibers)`` per system."""
    system = SYSTEMS[request.param]()
    space = ParameterSpace(system, _resolution(system))
    observation = make_observation(space)
    truth = full_space_tensor(space, observation)
    return space, observation, truth.reshape(-1, space.time_resolution)


def _rows(space, runs):
    grid = (space.resolution,) * space.n_param_modes
    return np.stack(np.unravel_index(runs, grid), axis=1)


class TestBitIdentity:
    @pytest.mark.parametrize("batch", [1, 7, 127, 600])
    def test_batches_match_full_space_rows(self, reference, batch):
        space, observation, flat = reference
        runs = np.random.default_rng(batch).choice(
            flat.shape[0], size=batch, replace=False
        )
        oracle = SimulationOracle(space, observation)
        fibers = oracle.fibers(_rows(space, runs))
        assert fibers.tobytes() == flat[runs].tobytes()

    def test_lazy_truth_matches_full_space_tensor(self, reference):
        space, observation, flat = reference
        oracle = SimulationOracle(space, observation)
        oracle.fibers(_rows(space, np.arange(0, flat.shape[0], 3)))
        truth = oracle.truth()
        assert truth.shape == space.shape
        assert truth.tobytes() == flat.tobytes()


class TestStudy:
    def test_create_simulates_nothing(self):
        meter = SimulationMeter()
        study = EnsembleStudy.create(DoublePendulum(), 5, meter=meter)
        assert meter.runs == 0
        assert study.oracle.n_simulated == 0

    def test_sampling_simulates_its_runs_in_one_call(self, monkeypatch):
        """A full-budget cross sample at resolution 8 (perfbench's
        pendulum study) touches 8^2 + 8^2 - 1 = 127 runs."""
        calls = []
        simulate = ensemble_module.simulate_fibers

        def counting(space, observation, rows, meter=None):
            calls.append(rows.shape[0])
            return simulate(space, observation, rows, meter=meter)

        monkeypatch.setattr(ensemble_module, "simulate_fibers", counting)
        meter = SimulationMeter()
        study = EnsembleStudy.create(DoublePendulum(), 8, meter=meter)
        partition = study.default_partition()
        x1, x2, cells, runs = study.sample_sub_ensembles(
            partition, budget_for_fractions(partition), seed=0
        )
        assert runs == 127
        assert calls == [127]
        assert meter.runs == 127
        assert study.oracle.n_simulated == 127
        # reading the full truth afterwards fills in only the rest
        truth = study.truth
        assert calls == [127, 8**4 - 127]
        for which, sub in ((1, x1), (2, x2)):
            full = partition.embed_coords(which, sub.coords)
            assert sub.values.tobytes() == truth[tuple(full.T)].tobytes()


class TestRuntime:
    def test_second_identical_study_simulates_nothing(self):
        runtime = Runtime(workers=1)
        samples = []
        meters = [SimulationMeter(), SimulationMeter()]
        try:
            for meter in meters:
                study = EnsembleStudy.create(
                    DoublePendulum(), 5, runtime=runtime, meter=meter
                )
                partition = study.default_partition()
                samples.append(study.sample_sub_ensembles(
                    partition, budget_for_fractions(partition), seed=3
                ))
        finally:
            runtime.shutdown()
        assert meters[0].runs == 5**2 + 5**2 - 1
        assert meters[1].runs == 0
        (x1, x2, cells, runs), (y1, y2, cells2, runs2) = samples
        assert x1.values.tobytes() == y1.values.tobytes()
        assert x2.values.tobytes() == y2.values.tobytes()
        assert (cells, runs) == (cells2, runs2)

    def test_concurrent_requests_simulate_each_run_once(self):
        space = ParameterSpace(DoublePendulum(), 4)
        observation = make_observation(space)
        rng = np.random.default_rng(0)
        requests = [
            rng.choice(space.n_simulations_full, size=40, replace=False)
            for _ in range(8)
        ]
        sequential = SimulationOracle(space, observation)
        expected = [
            sequential.fibers(_rows(space, runs)) for runs in requests
        ]
        meter = SimulationMeter()
        runtime = Runtime(workers=4)
        try:
            oracle = SimulationOracle(
                space, observation, meter=meter, runtime=runtime,
                cache_key="concurrent",
            )
            graph = TaskGraph()
            for index, runs in enumerate(requests):
                graph.add(
                    f"request-{index}", oracle.fibers, _rows(space, runs),
                    affinity="thread",
                )
            results = runtime.run(graph).results
        finally:
            runtime.shutdown()
        assert meter.runs == np.unique(np.concatenate(requests)).size
        for index, fibers in enumerate(expected):
            assert results[f"request-{index}"].tobytes() == fibers.tobytes()


class NaNLorenz(Lorenz):
    """Lorenz whose runs at the largest ``z0`` start from NaN."""

    name = "nan_lorenz"

    def initial_state(self, params):
        states = super().initial_state(params)
        states[..., params["z0"] == self.parameters[0].high] = np.nan
        return states


class TestFiniteFibers:
    def test_reference_run_raises_naming_the_system(self):
        space = ParameterSpace(NaNLorenz(), 4)
        with pytest.raises(SimulationError, match="nan_lorenz"):
            make_observation(space, offset=1.0)

    def test_conventional_scheme_raises_naming_the_row(self):
        study = EnsembleStudy.create(NaNLorenz(), 4)
        with pytest.raises(SimulationError, match=r"parameter row \(3, "):
            study.run_conventional(RandomSampler(seed=0), 60, [2] * 5)

    def test_sampling_raises_naming_the_row(self):
        study = EnsembleStudy.create(NaNLorenz(), 4)
        partition = study.default_partition()
        with pytest.raises(SimulationError, match=r"parameter row \(3, "):
            study.sample_sub_ensembles(
                partition, budget_for_fractions(partition), seed=0
            )

    def test_rejected_runs_stay_unsimulated(self):
        study = EnsembleStudy.create(NaNLorenz(), 4)
        with pytest.raises(SimulationError):
            study.oracle.fibers(np.array([[0, 0, 0, 0], [3, 0, 0, 0]]))
        assert study.oracle.n_simulated == 0
        fibers = study.oracle.fibers(np.array([[0, 0, 0, 0]]))
        assert np.isfinite(fibers).all()
