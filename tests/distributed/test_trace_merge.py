"""Distributed trace stitching, end to end against live workers.

The contract under test: a traced D-M2TD run over external worker
processes produces ONE merged trace — every worker-side map/reduce
span sits under the ``dispatch:<task>`` span that caused it, carrying
worker/pid attribution — and the merged span tree and counter totals
are deterministic: byte-identical canonical signatures at 1, 2 and 4
workers, counter totals equal to the inline-transport run.  With
tracing off, nothing is collected or shipped at all.
"""

import pytest

from repro.distributed import LocalMapReduceEngine, distributed_m2td
from repro.distributed.workers.protocol import TaskMessage
from repro.distributed.workers.transport import execute_task
from repro.observability import (
    MetricsRegistry,
    Tracer,
    merged_trace_signature,
    span,
    use_metrics,
    use_tracer,
)

#: Counters whose totals must not depend on the execution venue.
VENUE_INVARIANT_COUNTERS = (
    "svd.calls",
    "tensor.dense_unfolds",
    "mapreduce.jobs",
)


def traced_run(dm2td_inputs, workers, transport="process"):
    """One traced D-M2TD run under one ``dm2td-run`` span; returns
    (tracer, registry, run)."""
    x1, x2, part, ranks = dm2td_inputs
    tracer, registry = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        with span("dm2td-run", "experiment", workers=workers):
            engine = LocalMapReduceEngine(
                workers,
                transport=transport,
                heartbeat_seconds=0.1,
                lease_seconds=5.0,
            )
            try:
                run = distributed_m2td(x1, x2, part, ranks, engine=engine)
            finally:
                engine.close()
    return tracer, registry, run


def counter_totals(registry):
    state = registry.as_dict()
    return {
        name: state[name]["value"]
        for name in VENUE_INVARIANT_COUNTERS
        if name in state
    }


class TestMergedTrace:
    def test_worker_spans_under_dispatch_with_attribution(
        self, dm2td_inputs
    ):
        tracer, registry, _ = traced_run(dm2td_inputs, workers=2)
        dispatches = [
            span for span in tracer.iter_spans()
            if span.name.startswith("dispatch:")
        ]
        assert dispatches, "no dispatch spans recorded"
        merged = [d for d in dispatches if d.children]
        assert merged, "no worker telemetry merged under any dispatch"
        pids = set()
        for dispatch in merged:
            assert dispatch.category == "worker"
            window_hi = dispatch.started + dispatch.wall_seconds
            for child in dispatch.children:
                assert child.process_id > 0
                assert child.process_name.startswith("worker.")
                assert dispatch.started <= child.started <= window_hi
                assert child.started + child.wall_seconds <= window_hi + 1e-9
                pids.add(child.process_id)
        assert len(pids) == 2, "expected spans from 2 worker processes"
        # Per-worker counter attribution rode home with the spans.
        attributed = [
            name for name in registry.names()
            if name.startswith("worker.0.") or name.startswith("worker.1.")
        ]
        assert attributed, "no worker.<id>.* attributed counters"
        # Every dispatch span names the worker that ran its task.
        assert all(dispatch.attrs["worker"] for dispatch in dispatches)

    def test_spawn_pids_are_the_worker_lanes(self, dm2td_inputs):
        tracer, _, _ = traced_run(dm2td_inputs, workers=4)
        spawns = [s for s in tracer.iter_spans() if s.name == "worker-spawn"]
        lanes = {
            s.process_id for s in tracer.iter_spans()
            if s.process_name.startswith("worker.")
        }
        assert len(spawns) == 4
        assert all(s.attrs["attempt"] == 1 for s in spawns)
        assert {s.attrs["pid"] for s in spawns} == lanes

    @pytest.mark.parametrize("workers", [1, 4])
    def test_one_root_and_children_inside_parents(
        self, dm2td_inputs, workers
    ):
        tracer, _, _ = traced_run(dm2td_inputs, workers)
        (root,) = tracer.roots()
        assert root.name == "dm2td-run"
        for parent in root.walk():
            parent_end = parent.started + parent.wall_seconds
            for child in parent.children:
                assert parent.started - 1e-9 <= child.started, child
                assert (
                    child.started + child.wall_seconds <= parent_end + 1e-9
                ), child

    def test_merged_signature_identical_across_worker_counts(
        self, dm2td_inputs
    ):
        signatures, totals = {}, {}
        for workers in (1, 2, 4):
            tracer, registry, _ = traced_run(dm2td_inputs, workers)
            signatures[workers] = merged_trace_signature(tracer)
            totals[workers] = counter_totals(registry)
        assert signatures[1] != "[]"
        assert signatures[2] == signatures[1]
        assert signatures[4] == signatures[1]
        assert totals[2] == totals[1]
        assert totals[4] == totals[1]

    def test_counter_totals_match_inline_transport(self, dm2td_inputs):
        _, external_registry, external = traced_run(
            dm2td_inputs, workers=2, transport="process"
        )
        _, inline_registry, inline = traced_run(
            dm2td_inputs, workers=2, transport="inline"
        )
        assert counter_totals(external_registry) == counter_totals(
            inline_registry
        )
        # Same decomposition, to the byte.
        assert (
            external.result.tucker.core.tobytes()
            == inline.result.tucker.core.tobytes()
        )


class TestDisabledPathShipsNothing:
    """The NullTracer guard: no tracer, no telemetry — collected,
    encoded, or shipped."""

    def test_untraced_task_reply_carries_no_telemetry(self):
        message = TaskMessage(task_id="t0", payload=lambda: 41)
        reply = execute_task(message, worker_id="worker-0")
        assert reply.telemetry is None
        assert reply.telemetry_digest == ""

    def test_untraced_run_records_no_dispatch_spans(self, dm2td_inputs):
        x1, x2, part, ranks = dm2td_inputs
        registry = MetricsRegistry()
        with use_metrics(registry):
            engine = LocalMapReduceEngine(
                2, transport="process", heartbeat_seconds=0.1
            )
            try:
                distributed_m2td(x1, x2, part, ranks, engine=engine)
            finally:
                engine.close()
        # No per-worker attribution: nothing was shipped home.
        assert not [
            name for name in registry.names()
            if name.startswith("worker.0.") or name.startswith("worker.1.")
        ]
        assert "worker.telemetry_dropped" not in registry.names()
