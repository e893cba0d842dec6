"""The headline chaos property (paper reproduction meets fault
tolerance): any *single* injected task failure within the retry budget
leaves the D-M2TD decomposition **byte-identical** to a fault-free run
— at 1, 2 and 4 workers — and exhausted budgets surface through the
existing exception family with the fault's provenance attached.

Every plan is seeded from ``M2TD_CHAOS_SEED`` (CI runs a seed matrix),
so a red run here is reproducible locally from one environment
variable.
"""

import pytest

from repro.distributed import LocalMapReduceEngine, distributed_m2td
from repro.exceptions import FaultInjectionError, TaskFailedError
from repro.faults import FaultInjector, FaultSpec, plan_of, use_injector
from repro.runtime import RetryPolicy, Runtime

RETRY_ONCE = RetryPolicy(max_attempts=2, backoff_seconds=0.0)

#: One fault per case, all within RETRY_ONCE's budget: the engine runs
#: each task once, and the runtime re-runs the failed phase.
ENGINE_FAULTS = [
    pytest.param(
        FaultSpec(site="mapreduce.map", kind="raise", target="map-0",
                  times=1),
        id="map-raise",
    ),
    pytest.param(
        FaultSpec(site="mapreduce.map", kind="crash-worker",
                  target="map-0", times=1),
        id="map-crash",
    ),
    pytest.param(
        FaultSpec(site="mapreduce.map", kind="drop-output",
                  target="map-0", times=1),
        id="map-drop-output",
    ),
    pytest.param(
        FaultSpec(site="mapreduce.reduce", kind="raise",
                  target="reduce-1", times=1),
        id="reduce-raise",
    ),
    pytest.param(
        FaultSpec(site="mapreduce.map", kind="delay", target="map-0",
                  times=1, delay_seconds=0.25),
        id="map-delay",
    ),
]

RUNTIME_FAULTS = [
    pytest.param(
        FaultSpec(site="runtime.task", kind="raise", target="phase1",
                  times=1),
        id="task-raise",
    ),
    pytest.param(
        FaultSpec(site="runtime.task", kind="crash-worker",
                  target="phase2", times=1),
        id="task-crash",
    ),
    pytest.param(
        FaultSpec(site="runtime.task", kind="delay", target="phase3",
                  times=1, delay_seconds=0.05),
        id="task-delay",
    ),
    pytest.param(
        FaultSpec(site="executor.submit", kind="raise", target="*",
                  times=1),
        id="executor-submit-raise",
    ),
]


@pytest.mark.parametrize("spec", ENGINE_FAULTS)
def test_single_engine_fault_output_byte_identical(
    spec, dm2td_inputs, fault_free_payload,
    assert_identical_across_workers, chaos_seed,
):
    x1, x2, part, ranks = dm2td_inputs
    plan = plan_of([spec], seed=chaos_seed)
    summaries = {}

    def run(workers):
        engine = LocalMapReduceEngine(workers)
        injector = FaultInjector(plan)  # fresh injector = replay
        with use_injector(injector):
            with Runtime(workers=workers, default_retry=RETRY_ONCE) as rt:
                result = distributed_m2td(
                    x1, x2, part, ranks, engine=engine, runtime=rt
                )
        engine.close()
        summaries[workers] = injector.summary()
        return result

    payload = assert_identical_across_workers(run)
    assert payload == fault_free_payload
    for workers, summary in summaries.items():
        assert summary["injected"] >= 1, (
            f"fault never fired with {workers} workers"
        )
        if spec.kind != "delay":  # delays need no recovery
            assert summary["recovered"] >= 1, (
                f"fault not recovered with {workers} workers"
            )


@pytest.mark.parametrize("spec", RUNTIME_FAULTS)
def test_single_runtime_fault_output_byte_identical(
    spec, dm2td_inputs, fault_free_payload,
    assert_identical_across_workers, chaos_seed,
):
    x1, x2, part, ranks = dm2td_inputs
    plan = plan_of([spec], seed=chaos_seed)
    summaries = {}

    def run(workers):
        injector = FaultInjector(plan)
        with use_injector(injector):
            with Runtime(workers=workers, default_retry=RETRY_ONCE) as rt:
                result = distributed_m2td(
                    x1, x2, part, ranks, runtime=rt
                )
        summaries[workers] = injector.summary()
        return result

    payload = assert_identical_across_workers(run)
    assert payload == fault_free_payload
    for workers, summary in summaries.items():
        assert summary["injected"] >= 1, (
            f"fault never fired with {workers} workers"
        )


def test_phase_retry_credits_the_engine_fault_it_healed(
    dm2td_inputs, fault_free_payload, dm2td_payload_fn, chaos_seed,
):
    """An engine fault fails its task once; the runtime re-runs the
    phase, and the re-run task credits the healed fault.  The retry
    costs exactly one runtime task attempt."""
    x1, x2, part, ranks = dm2td_inputs

    def run(specs):
        injector = FaultInjector(plan_of(specs, seed=chaos_seed))
        with use_injector(injector):
            with Runtime(default_retry=RETRY_ONCE) as rt:
                result = distributed_m2td(x1, x2, part, ranks, runtime=rt)
        attempts = sum(task.attempts for task in rt.report.tasks)
        return result, injector.summary(), attempts

    _clean, _summary, clean_attempts = run([])
    result, summary, attempts = run(
        [FaultSpec(site="mapreduce.map", kind="raise", target="map-0",
                   times=1)]
    )
    assert dm2td_payload_fn(result) == fault_free_payload
    assert summary == {"injected": 1, "recovered": 1}
    assert attempts == clean_attempts + 1


class TestExhaustedBudget:
    def test_engine_budget_exhaustion_keeps_provenance(
        self, dm2td_inputs, chaos_seed
    ):
        """A fault outliving the phase's attempts propagates through the
        task graph as the existing family (TaskFailedError) with the
        injected fault in its cause chain."""
        x1, x2, part, ranks = dm2td_inputs
        plan = plan_of(
            [FaultSpec(site="mapreduce.map", kind="raise",
                       target="map-0", times=None, message="unhealable")],
            seed=chaos_seed,
        )
        engine = LocalMapReduceEngine(2)
        with use_injector(FaultInjector(plan)):
            with pytest.raises(TaskFailedError) as excinfo:
                distributed_m2td(x1, x2, part, ranks, engine=engine)
        cause = excinfo.value.__cause__
        assert isinstance(cause, FaultInjectionError)
        assert cause.site == "mapreduce.map"
        assert cause.target == "map-0"
        assert cause.fault_id == "fault-0"
        assert "unhealable" in str(cause)

    def test_engine_alone_raises_fault_typed_error(self, chaos_seed):
        from repro.distributed import MapReduceJob

        plan = plan_of(
            [FaultSpec(site="mapreduce.reduce", kind="raise",
                       target="*", times=None)],
            seed=chaos_seed,
        )
        job = MapReduceJob(
            name="sum", reduce_fn=lambda k, vs: [(k, sum(vs))]
        )
        engine = LocalMapReduceEngine()
        with use_injector(FaultInjector(plan)):
            with pytest.raises(FaultInjectionError):
                engine.run(job, [("k", 1), ("k", 2)])
