"""Chaos proof for the cross-process worker protocol: any *single*
injected ``worker.*`` fault — including a real ``kill -9`` of a live
worker process — within the supervisor's crash budget leaves the
D-M2TD decomposition **byte-identical** to a fault-free run, at 1, 2,
4 and 8 external workers, with the recovery metered on
``faults.recovered`` and the worker counters.  Exhausted crash budgets
degrade to inline execution with a visible counter — never a hang,
never a silent wrong answer.

Like the rest of the chaos suite, every plan is seeded from
``M2TD_CHAOS_SEED`` so CI failures replay locally.
"""

import time

import pytest

from repro.distributed import LocalMapReduceEngine, distributed_m2td
from repro.faults import FaultInjector, FaultSpec, plan_of, use_injector
from repro.observability import Tracer, get_metrics, span, use_tracer
from repro.runtime import RetryPolicy, Runtime

WORKER_COUNTS = (1, 2, 4, 8)

#: One worker-level fault per case.  ``crash-worker`` at worker sites
#: is a REAL SIGKILL of the live worker process.
WORKER_FAULTS = [
    pytest.param(
        FaultSpec(site="worker.spawn", kind="crash-worker",
                  target="worker-0", times=1),
        id="spawn-sigkill",
    ),
    pytest.param(
        FaultSpec(site="worker.spawn", kind="raise", target="worker-0",
                  times=1),
        id="spawn-raise",
    ),
    pytest.param(
        FaultSpec(site="worker.heartbeat", kind="crash-worker",
                  target="worker-0", times=1),
        id="heartbeat-sigkill",
    ),
    pytest.param(
        FaultSpec(site="worker.result", kind="corrupt", target="map-0",
                  times=1),
        id="result-corrupt",
    ),
    pytest.param(
        FaultSpec(site="worker.result", kind="drop-output",
                  target="map-0", times=1),
        id="result-dropped",
    ),
    pytest.param(
        FaultSpec(site="worker.result", kind="delay", target="map-0",
                  times=1, delay_seconds=0.1),
        id="result-delayed",
    ),
]


def run_external(x1, x2, part, ranks, workers, runtime=None,
                 **engine_kwargs):
    engine = LocalMapReduceEngine(
        workers,
        transport="process",
        heartbeat_seconds=0.1,
        lease_seconds=5.0,
        **engine_kwargs,
    )
    try:
        return distributed_m2td(
            x1, x2, part, ranks, engine=engine, runtime=runtime
        )
    finally:
        engine.close()


@pytest.mark.parametrize("spec", WORKER_FAULTS)
def test_single_worker_fault_output_byte_identical(
    spec, dm2td_inputs, fault_free_payload,
    assert_identical_across_workers, chaos_seed,
):
    x1, x2, part, ranks = dm2td_inputs
    plan = plan_of([spec], seed=chaos_seed)
    summaries = {}

    def run(workers):
        injector = FaultInjector(plan)  # fresh injector = replay
        with use_injector(injector):
            result = run_external(x1, x2, part, ranks, workers)
        summaries[workers] = injector.summary()
        return result

    payload = assert_identical_across_workers(run, workers=WORKER_COUNTS)
    assert payload == fault_free_payload
    for workers, summary in summaries.items():
        assert summary["injected"] >= 1, (
            f"fault never fired with {workers} external workers"
        )
        if spec.kind != "delay":  # delays need no recovery
            assert summary["recovered"] >= 1, (
                f"fault not recovered with {workers} external workers"
            )


def test_heartbeat_sigkill_is_a_death_span_in_one_trace(
    dm2td_inputs, fault_free_payload, dm2td_payload_fn, chaos_seed,
):
    """The ``heartbeat-sigkill`` case, traced: the real SIGKILL lands
    as a ``worker-death`` span inside ``supervisor-run``, and the trace
    keeps one root with every child inside its parent.

    The kill fires on worker-0's first beat, 0.1 s after its spawn —
    often after a whole small run has finished — so the engine
    outlives the kill and a second run meets the dead worker.
    """
    x1, x2, part, ranks = dm2td_inputs
    (spec,) = next(
        p.values for p in WORKER_FAULTS if p.id == "heartbeat-sigkill"
    )
    tracer = Tracer()
    with use_tracer(tracer), use_injector(
        FaultInjector(plan_of([spec], seed=chaos_seed))
    ):
        engine = LocalMapReduceEngine(
            2, transport="process", heartbeat_seconds=0.1,
            lease_seconds=5.0,
        )
        try:
            with span("chaos-run", "experiment"):
                runs = [distributed_m2td(x1, x2, part, ranks, engine=engine)]
                time.sleep(0.3)
                runs.append(
                    distributed_m2td(x1, x2, part, ranks, engine=engine)
                )
        finally:
            engine.close()
    for run in runs:
        assert dm2td_payload_fn(run) == fault_free_payload
    deaths = [
        death
        for batch in tracer.iter_spans() if batch.name == "supervisor-run"
        for death in batch.walk() if death.name == "worker-death"
    ]
    assert deaths, "the SIGKILL left no worker-death span"
    assert all(death.attrs["reason"] for death in deaths)
    (root,) = tracer.roots()
    assert root.name == "chaos-run"
    for parent in root.walk():
        parent_end = parent.started + parent.wall_seconds
        for child in parent.children:
            assert parent.started - 1e-9 <= child.started, child
            assert child.started + child.wall_seconds <= parent_end + 1e-9


def test_fault_free_external_workers_match_in_process(
    dm2td_inputs, fault_free_payload, assert_identical_across_workers,
    dm2td_payload_fn,
):
    """The supervised engine is byte-identical to the in-process one
    even with no faults at all — transport must never change math."""
    x1, x2, part, ranks = dm2td_inputs
    payload = assert_identical_across_workers(
        lambda workers: run_external(x1, x2, part, ranks, workers),
        workers=WORKER_COUNTS,
    )
    assert payload == fault_free_payload


def test_engine_fault_recovers_on_external_workers(
    dm2td_inputs, fault_free_payload, dm2td_payload_fn, chaos_seed,
):
    """A mapreduce-level fault ships to the worker as a directive,
    raises there with full provenance, and the runtime's retry of the
    phase absorbs it — same contract as in-process execution."""
    x1, x2, part, ranks = dm2td_inputs
    plan = plan_of(
        [FaultSpec(site="mapreduce.map", kind="raise", target="map-0",
                   times=1)],
        seed=chaos_seed,
    )
    injector = FaultInjector(plan)
    retry_once = RetryPolicy(max_attempts=2, backoff_seconds=0.0)
    with use_injector(injector):
        with Runtime(default_retry=retry_once) as rt:
            result = run_external(x1, x2, part, ranks, 2, runtime=rt)
    assert dm2td_payload_fn(result) == fault_free_payload
    assert injector.summary() == {"injected": 1, "recovered": 1}


def test_respawns_and_recoveries_are_metered(dm2td_inputs, chaos_seed):
    x1, x2, part, ranks = dm2td_inputs
    plan = plan_of(
        [FaultSpec(site="worker.spawn", kind="crash-worker",
                   target="worker-0", times=1)],
        seed=chaos_seed,
    )
    respawns_before = get_metrics().counter("worker.respawns").value
    with use_injector(FaultInjector(plan)) as injector:
        run_external(x1, x2, part, ranks, 2)
    assert get_metrics().counter("worker.respawns").value > respawns_before
    assert injector.summary()["recovered"] >= 1


def test_exhausted_crash_budget_degrades_never_lies(
    dm2td_inputs, fault_free_payload, dm2td_payload_fn, chaos_seed,
):
    """Spawns failing beyond the crash budget degrade the pool to
    inline execution: the decomposition still comes out byte-identical
    and the fallback is visible on ``worker.inline_fallbacks``."""
    x1, x2, part, ranks = dm2td_inputs
    plan = plan_of(
        [FaultSpec(site="worker.spawn", kind="raise", target="worker-*",
                   times=None)],
        seed=chaos_seed,
    )
    before = get_metrics().counter("worker.inline_fallbacks").value
    with use_injector(FaultInjector(plan)):
        result = run_external(
            x1, x2, part, ranks, 2, crash_budget=1,
        )
    assert dm2td_payload_fn(result) == fault_free_payload
    assert get_metrics().counter("worker.inline_fallbacks").value > before
