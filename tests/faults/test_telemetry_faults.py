"""Chaos proof for the telemetry channel: faults at the
``observability.telemetry`` site cost *visibility*, never the task.

A dropped or corrupted snapshot degrades to supervisor-side-only
dispatch spans with a ``worker.telemetry_dropped`` meter and a
recovery record — while the decomposition stays byte-identical to a
fault-free run.  The channel is one-way: mangling telemetry must not
touch the separately-checksummed result payload.
"""

import pytest

from repro.distributed import LocalMapReduceEngine, distributed_m2td
from repro.faults import FaultInjector, FaultSpec, plan_of, use_injector
from repro.observability import MetricsRegistry, Tracer, use_metrics, use_tracer

TELEMETRY_FAULTS = [
    pytest.param(
        FaultSpec(site="observability.telemetry", kind="drop-output",
                  target="map-0", times=1),
        id="snapshot-dropped",
    ),
    pytest.param(
        FaultSpec(site="observability.telemetry", kind="corrupt",
                  target="map-0", times=1),
        id="snapshot-corrupted",
    ),
    pytest.param(
        FaultSpec(site="observability.telemetry", kind="raise",
                  target="map-0", times=1),
        id="capture-raises",
    ),
]


def traced_chaos_run(dm2td_inputs, plan, workers=2):
    x1, x2, part, ranks = dm2td_inputs
    tracer, registry = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        with use_injector(FaultInjector(plan)) as injector:
            engine = LocalMapReduceEngine(
                workers,
                transport="process",
                heartbeat_seconds=0.1,
                lease_seconds=5.0,
            )
            try:
                run = distributed_m2td(x1, x2, part, ranks, engine=engine)
            finally:
                engine.close()
            summary = injector.summary()
    return run, tracer, registry, summary


@pytest.mark.parametrize("spec", TELEMETRY_FAULTS)
def test_telemetry_fault_costs_visibility_not_the_answer(
    spec, dm2td_inputs, fault_free_payload, dm2td_payload_fn, chaos_seed,
):
    plan = plan_of([spec], seed=chaos_seed)
    run, tracer, registry, summary = traced_chaos_run(dm2td_inputs, plan)
    # The decomposition never noticed.
    assert dm2td_payload_fn(run) == fault_free_payload
    # The loss was injected, metered, and accounted as recovered.
    assert summary["injected"] >= 1
    assert summary["recovered"] >= 1
    state = registry.as_dict()
    assert state["worker.telemetry_dropped"]["value"] >= 1.0
    assert state["faults.recovered"]["value"] >= 1.0
    # The faulted task's dispatch span says why its subtree is missing.
    dropped = [
        span for span in tracer.iter_spans()
        if "telemetry_dropped" in span.attrs
    ]
    assert [span.name for span in dropped] == ["dispatch:map-0"]
    assert dropped[0].attrs["telemetry_dropped"]
    # Supervisor-side dispatch spans survive; only the faulted task's
    # worker-side subtree is missing.
    dispatches = {
        span.name: span for span in tracer.iter_spans()
        if span.name.startswith("dispatch:")
    }
    assert dispatches, "supervisor-side dispatch spans must survive"
    merged = [d for d in dispatches.values() if d.children]
    assert merged, "unfaulted tasks still ship telemetry"


def test_all_snapshots_dropped_still_converges(
    dm2td_inputs, fault_free_payload, dm2td_payload_fn, chaos_seed,
):
    plan = plan_of(
        [FaultSpec(site="observability.telemetry", kind="drop-output",
                   target="*", times=None)],
        seed=chaos_seed,
    )
    run, tracer, registry, summary = traced_chaos_run(dm2td_inputs, plan)
    assert dm2td_payload_fn(run) == fault_free_payload
    dropped = registry.as_dict()["worker.telemetry_dropped"]["value"]
    assert dropped == summary["injected"] >= 1
    # Every dispatch span is bare: full visibility loss, zero damage.
    for span in tracer.iter_spans():
        if span.name.startswith("dispatch:"):
            assert span.children == []


def test_untraced_runs_never_arm_the_site(dm2td_inputs, chaos_seed):
    """With tracing off nothing is collected, so a telemetry fault has
    nothing to hit — the plan must not fire at all."""
    x1, x2, part, ranks = dm2td_inputs
    plan = plan_of(
        [FaultSpec(site="observability.telemetry", kind="drop-output",
                   target="*", times=None)],
        seed=chaos_seed,
    )
    with use_metrics(MetricsRegistry()) as registry:
        with use_injector(FaultInjector(plan)) as injector:
            engine = LocalMapReduceEngine(
                2, transport="process", heartbeat_seconds=0.1
            )
            try:
                distributed_m2td(x1, x2, part, ranks, engine=engine)
            finally:
                engine.close()
            assert injector.summary()["injected"] == 0
    assert "worker.telemetry_dropped" not in registry.names()
