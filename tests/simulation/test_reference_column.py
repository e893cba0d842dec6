"""The observation's reference run rides the oracle's batches.

``EnsembleStudy.create`` integrates nothing.  The true parameters are one
more column of the first batch the study integrates anyway; that column
is charged to nothing, it yields the same states as a reference run of
its own, a cache hit restores it with its batch, and a diverging column
fails as a reference run, with a typed error naming the system and the
true parameters.
"""

import numpy as np
import pytest

from repro.core import EnsembleStudy
from repro.exceptions import SimulationError
from repro.observability import Tracer, use_metrics, use_tracer
from repro.runtime import Runtime
from repro.sampling import budget_for_fractions
from repro.simulation import (
    SYSTEMS,
    DoublePendulum,
    SimulationMeter,
    make_observation,
)
from repro.simulation import ensemble as ensemble_module
from repro.simulation import systems as systems_module

from .test_oracle import NaNLorenz

#: Three cells of two distinct runs of a resolution-4 double pendulum.
COORDS = np.array([[0, 1, 2, 3, 0], [0, 1, 2, 3, 3], [3, 2, 1, 0, 1]])


def _spans(tracer, name):
    return [s for s in tracer.iter_spans() if s.name == name]


@pytest.fixture
def integrations(monkeypatch):
    """The column count of every integrator call, from anywhere."""
    widths = []
    for module in (ensemble_module, systems_module):
        def counting(f, y0, *args, _rk4=module.rk4_sampled, **kwargs):
            widths.append(np.shape(y0)[1:])
            return _rk4(f, y0, *args, **kwargs)

        monkeypatch.setattr(module, "rk4_sampled", counting)
    return widths


class TestCharges:
    def test_create_integrates_nothing(self, integrations):
        meter = SimulationMeter()
        with use_tracer(Tracer()) as tracer, use_metrics() as registry:
            study = EnsembleStudy.create(DoublePendulum(), 4, meter=meter)
        assert integrations == []
        assert _spans(tracer, "simulate-fibers") == []
        assert _spans(tracer, "reference-run") == []
        assert "simulate.runs" not in registry
        assert "simulate.cells" not in registry
        assert meter.runs == 0 and meter.wall_seconds == 0.0
        assert study.oracle.n_simulated == 0

    def test_first_request_charges_exactly_its_own_runs(self, integrations):
        meter = SimulationMeter()
        with use_tracer(Tracer()) as tracer, use_metrics() as registry:
            study = EnsembleStudy.create(DoublePendulum(), 4, meter=meter)
            study.oracle.cells(COORDS)
            observation = study.observation
        t = study.space.time_resolution
        # one integration: the two runs plus the reference column
        assert integrations == [(3,)]
        assert [s.attrs["batch"] for s in _spans(tracer, "simulate-fibers")] == [2]
        assert _spans(tracer, "reference-run") == []
        assert (meter.runs, meter.cells) == (2, 2 * t)
        assert registry.counter("simulate.runs").value == 2
        assert registry.counter("simulate.cells").value == 2 * t
        assert observation.states is not None


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_column_equals_the_reference_run(name):
    """The states the batch carries are a reference run's, bit for bit,
    and so are the fibers measured against them."""
    system = SYSTEMS[name]()
    study = EnsembleStudy.create(system, 3)
    truth = study.truth
    expected = make_observation(study.space)
    assert study.observation.states.tobytes() == expected.states.tobytes()
    alone = EnsembleStudy.create(system, 3)
    alone.observation  # the reference run alone, then the batch
    assert alone.truth.tobytes() == truth.tobytes()


def test_observation_read_first_runs_the_reference_alone():
    meter = SimulationMeter()
    with use_tracer(Tracer()) as tracer, use_metrics() as registry:
        study = EnsembleStudy.create(DoublePendulum(), 4, meter=meter)
        observation = study.observation
        assert study.observation is observation
        study.oracle.cells(COORDS)
    (run,) = _spans(tracer, "reference-run")
    lone, batch = _spans(tracer, "simulate-fibers")
    assert lone.attrs["batch"] == 0 and batch.attrs["batch"] == 2
    assert lone in list(run.walk())
    assert registry.counter("simulate.runs").value == 2
    assert meter.runs == 2
    expected = make_observation(study.space)
    assert observation.states.tobytes() == expected.states.tobytes()


def test_cache_hit_restores_the_observation():
    runtime = Runtime(workers=1)
    studies = []
    try:
        for _ in range(2):
            with use_tracer(Tracer()) as tracer:
                study = EnsembleStudy.create(
                    DoublePendulum(), 4, runtime=runtime
                )
                study.oracle.cells(COORDS)
                study.observation
            studies.append(study)
    finally:
        runtime.shutdown()
    assert _spans(tracer, "simulate-fibers") == []
    assert _spans(tracer, "reference-run") == []
    first, second = (s.observation.states for s in studies)
    assert second.tobytes() == first.tobytes()


class TestDivergingReference:
    @pytest.mark.parametrize("workers", [None, 1])
    def test_first_cells_request_raises_naming_system_and_params(
        self, workers
    ):
        system = NaNLorenz()
        true = {p.name: p.high for p in system.parameters}  # z0 at high
        runtime = None if workers is None else Runtime(workers=workers)
        try:
            study = EnsembleStudy.create(system, 4, true_params=true,
                                         runtime=runtime)
            # the grid row is finite: only the reference column is not
            for _ in range(2):
                with pytest.raises(
                    SimulationError,
                    match=r"nan_lorenz: reference run diverged .*'z0': 30\.0",
                ):
                    study.oracle.cells(np.array([[0, 0, 0, 0, 0]]))
            with pytest.raises(SimulationError, match="nan_lorenz"):
                study.observation
        finally:
            if runtime is not None:
                runtime.shutdown()
        assert study.oracle.n_simulated == 0


class TestCacheVersion:
    @staticmethod
    def _sample(runtime, meter):
        study = EnsembleStudy.create(
            DoublePendulum(), 4, runtime=runtime, meter=meter
        )
        partition = study.default_partition()
        x1, x2, _cells, _runs = study.sample_sub_ensembles(
            partition, budget_for_fractions(partition), seed=0
        )
        return x1.values, x2.values, study.truth.copy()

    def test_cache_of_another_version_is_a_miss(self, tmp_path, monkeypatch):
        fresh = SimulationMeter()
        expected = self._sample(None, fresh)
        # Other code wrote this cache: other bits, under another version.
        with monkeypatch.context() as patch:
            patch.setattr(EnsembleStudy, "_CACHE_VERSION", "other")
            simulate = ensemble_module.simulate_fibers
            patch.setattr(
                ensemble_module, "simulate_fibers",
                lambda *args, **kwargs: simulate(*args, **kwargs) + 1.0,
            )
            with Runtime(workers=1, cache_dir=str(tmp_path)) as runtime:
                stale = self._sample(runtime, SimulationMeter())
        assert not np.array_equal(stale[0], expected[0])
        assert list(tmp_path.glob("*.npz"))
        for attempt in range(2):
            meter = SimulationMeter()
            with Runtime(workers=1, cache_dir=str(tmp_path)) as runtime:
                got = self._sample(runtime, meter)
            for values, reference in zip(got, expected):
                assert values.tobytes() == reference.tobytes()
            # a miss integrates; once written, this version hits
            assert meter.runs == (fresh.runs if attempt == 0 else 0)
