"""Cross-process trace stitching: context propagation, child-side
capture, snapshot wire shape, parent-side merge, canonical signatures.
"""

import json
import os

import pytest

from repro.observability import (
    MetricsRegistry,
    NULL_TRACER,
    Span,
    TraceContext,
    Tracer,
    capture,
    current_trace_context,
    decode_snapshot,
    encode_snapshot,
    get_metrics,
    get_tracer,
    merge_snapshot,
    merged_trace_signature,
    span_from_dict,
    span_to_dict,
    use_tracer,
)


class TestTraceContext:
    def test_none_while_tracing_off(self):
        assert current_trace_context() is None

    def test_carries_active_trace_id(self):
        with use_tracer(Tracer()) as tracer:
            context = current_trace_context("dispatch:map-0")
        assert context.trace_id == tracer.trace_id
        assert context.parent_span == "dispatch:map-0"

    def test_tracer_ids_distinct(self):
        assert Tracer().trace_id != Tracer().trace_id
        assert NULL_TRACER.trace_id == ""


class TestSpanRoundTrip:
    def build(self):
        tracer = Tracer()
        with tracer.span("outer", "mapreduce", job="phase1") as outer:
            with tracer.span("inner", "tensor-op", mode=2):
                pass
        return tracer, outer

    def test_round_trip_preserves_tree(self):
        tracer, outer = self.build()
        data = span_to_dict(outer)
        rebuilt = span_from_dict(Tracer(), data)
        assert rebuilt.name == "outer"
        assert rebuilt.category == "mapreduce"
        assert rebuilt.attrs["job"] == "phase1"
        assert [c.name for c in rebuilt.children] == ["inner"]
        assert rebuilt.children[0].attrs["mode"] == 2

    def test_unjsonable_attrs_fall_back_to_repr(self):
        tracer = Tracer()
        with tracer.span("s", "misc", obj=object()) as span:
            pass
        data = span_to_dict(span)
        json.dumps(data)  # must not raise
        assert "object" in data["attrs"]["obj"]

    def test_shift_moves_onto_parent_timeline(self):
        _, outer = self.build()
        data = span_to_dict(outer)
        rebuilt = span_from_dict(Tracer(), data, shift=10.0)
        assert rebuilt.started == pytest.approx(outer.started + 10.0)

    def test_window_clamps_skewed_spans_recursively(self):
        data = {
            "name": "child", "category": "misc", "started": 50.0,
            "wall": 100.0,
            "children": [
                {"name": "grand", "category": "misc",
                 "started": 120.0, "wall": 5.0},
            ],
        }
        rebuilt = span_from_dict(Tracer(), data, window=(1.0, 2.0))
        assert rebuilt.started == 2.0
        assert rebuilt.wall_seconds == 0.0
        grand = rebuilt.children[0]
        assert grand.started <= rebuilt.started + rebuilt.wall_seconds
        assert grand.wall_seconds == 0.0

    def test_process_attribution_propagates_to_children(self):
        _, outer = self.build()
        rebuilt = span_from_dict(
            Tracer(), span_to_dict(outer),
            process_id=99, process_name="worker.2",
        )
        for span in (rebuilt, *rebuilt.children):
            assert span.process_id == 99
            assert span.process_name == "worker.2"


class TestCapture:
    def test_installs_and_restores_globals(self):
        before_tracer, before_metrics = get_tracer(), get_metrics()
        context = TraceContext("abc123", "dispatch:t")
        with capture(context, worker="3") as telemetry:
            assert get_tracer() is telemetry.tracer
            assert get_metrics() is telemetry.registry
            assert telemetry.tracer.trace_id == "abc123"
            with telemetry.tracer.span("work", "misc"):
                get_metrics().counter("c").inc()
        assert get_tracer() is before_tracer
        assert get_metrics() is before_metrics

    def test_snapshot_shape(self):
        with capture(TraceContext("t1"), worker="0") as telemetry:
            with telemetry.tracer.span("work", "misc"):
                pass
        snapshot = telemetry.snapshot()
        assert snapshot["version"] == 2
        assert "events" not in snapshot
        assert snapshot["trace_id"] == "t1"
        assert snapshot["pid"] == os.getpid()
        assert snapshot["worker"] == "0"
        assert snapshot["epoch_unix"] > 0
        assert [s["name"] for s in snapshot["spans"]] == ["work"]

    def test_encode_decode_round_trip(self):
        with capture(TraceContext("t1")) as telemetry:
            pass
        payload = telemetry.encode()
        assert decode_snapshot(payload)["trace_id"] == "t1"

    @pytest.mark.parametrize(
        "payload",
        [b"\xff\x00garbage", b"[1, 2]", b'{"no": "version"}',
         b'{"version": 99}'],
        ids=["binary", "not-a-dict", "versionless", "future-version"],
    )
    def test_decode_rejects_non_snapshots(self, payload):
        with pytest.raises(ValueError):
            decode_snapshot(payload)


def child_snapshot(worker="1", epoch_unix=1000.0, counters=(), spans=()):
    return {
        "version": 2, "trace_id": "t", "pid": 777, "worker": worker,
        "epoch_unix": epoch_unix,
        "spans": list(spans),
        "metrics": {
            name: {"kind": "counter", "value": value}
            for name, value in counters
        },
    }


class TestMergeSnapshot:
    def dispatch_span(self, tracer, started=5.0, wall=2.0):
        span = Span(tracer, "dispatch:map-0", "worker", {})
        span.started, span.wall_seconds = started, wall
        return span

    def test_spans_attach_under_dispatch_with_attribution(self):
        tracer = Tracer()
        dispatch = self.dispatch_span(tracer)
        snapshot = child_snapshot(spans=[
            {"name": "map-0", "category": "mapreduce",
             "started": 0.5, "wall": 1.0, "children": []},
        ])
        attached = merge_snapshot(
            snapshot, parent_span=dispatch, tracer=tracer,
            registry=MetricsRegistry(), dispatched_unix=1000.0,
            worker_id="1",
        )
        assert attached == 1
        (child,) = dispatch.children
        assert child.process_id == 777
        assert child.process_name == "worker.1"
        # dispatched at child epoch => child offsets land at
        # dispatch.started + offset, inside the window.
        assert child.started == pytest.approx(5.5)

    def test_skewed_clock_stays_inside_dispatch_window(self):
        tracer = Tracer()
        dispatch = self.dispatch_span(tracer, started=5.0, wall=2.0)
        snapshot = child_snapshot(
            epoch_unix=5000.0,  # wildly skewed vs dispatched_unix
            spans=[{"name": "m", "category": "mapreduce",
                    "started": 0.0, "wall": 1.0, "children": []}],
        )
        merge_snapshot(
            snapshot, parent_span=dispatch, tracer=tracer,
            registry=MetricsRegistry(), dispatched_unix=1000.0,
        )
        (child,) = dispatch.children
        assert 5.0 <= child.started <= 7.0
        assert child.started + child.wall_seconds <= 7.0

    def test_counters_fold_globally_and_per_worker(self):
        registry = MetricsRegistry()
        registry.counter("svd.calls").inc(2)
        merge_snapshot(
            child_snapshot(counters=[("svd.calls", 3.0)]),
            registry=registry, worker_id="1",
        )
        merge_snapshot(
            child_snapshot(counters=[("svd.calls", 4.0)]),
            registry=registry, worker_id="2",
        )
        state = registry.as_dict()
        assert state["svd.calls"]["value"] == 9.0
        assert state["worker.1.svd.calls"]["value"] == 3.0
        assert state["worker.2.svd.calls"]["value"] == 4.0

    def test_no_parent_span_merges_metrics_only(self):
        registry = MetricsRegistry()
        attached = merge_snapshot(
            child_snapshot(counters=[("c", 1.0)]), registry=registry,
        )
        assert attached == 0
        assert registry.as_dict()["c"]["value"] == 1.0


class TestMergedTraceSignature:
    def build(self, worker, pid):
        tracer = Tracer()
        with tracer.span("supervisor-run", "worker"):
            pass
        root = tracer.roots()[0]
        for task in ("map-1", "map-0"):
            dispatch = Span(
                tracer, f"dispatch:{task}", "worker",
                {"worker": worker, "requeues": 0},
            )
            child = Span(tracer, task, "mapreduce", {"pid": pid})
            dispatch.children.append(child)
            root.children.append(dispatch)
        return tracer

    def test_identical_despite_volatile_attrs_and_order(self):
        assert merged_trace_signature(
            self.build("worker-0", 100)
        ) == merged_trace_signature(self.build("worker-3", 999))

    def test_differs_on_real_structure(self):
        tracer = self.build("worker-0", 100)
        extra = Span(tracer, "dispatch:reduce-0", "worker", {})
        tracer.roots()[0].children.append(extra)
        assert merged_trace_signature(tracer) != merged_trace_signature(
            self.build("worker-0", 100)
        )
