"""Cross-process trace stitching and worker telemetry shipping.

A worker child process has its own tracer epoch and its own metrics
registry — neither of which the parent can see.
This module is the bridge:

* :class:`TraceContext` — the tiny picklable capsule (trace id +
  dispatching span name) the parent sends *out* with each task body;
* :func:`capture` — the child-side context manager that installs a
  fresh :class:`~repro.observability.Tracer` /
  :class:`~repro.observability.MetricsRegistry` around task execution
  and serializes what they collected;
* :func:`encode_snapshot` / :func:`decode_snapshot` — the JSON wire
  shape that rides *home* inside the checksummed reply envelope;
* :func:`merge_snapshot` — the parent-side fold: child spans attach
  under the dispatching span (clock-skew-normalized onto the parent's
  timeline and clamped into the dispatch window), counters/histograms
  add into the process-wide registry with ``worker.<id>`` attribution;
* :func:`merged_trace_signature` — a canonical, timing-free rendering
  of the merged dispatch subtrees, so tests can assert byte-identical
  merges across worker counts.

Clock-skew normalization: each tracer records ``epoch_unix``
(``time.time()`` at construction) alongside its ``perf_counter``
epoch.  A child offset maps onto the parent timeline as
``child.epoch_unix - parent.epoch_unix + offset`` — wall clocks agree
across processes on one host far better than the two unrelated
``perf_counter`` domains do — and the result is clamped into the
dispatching span's window so a skewed clock can never make a child
span float outside the dispatch that caused it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional

from contextlib import contextmanager

from .metrics import MetricsRegistry, get_metrics, set_metrics
from .tracer import Span, Tracer, get_tracer, set_tracer

__all__ = [
    "SNAPSHOT_VERSION",
    "TraceContext",
    "capture",
    "current_trace_context",
    "decode_snapshot",
    "encode_snapshot",
    "merge_snapshot",
    "merged_trace_signature",
    "span_from_dict",
    "span_to_dict",
]

SNAPSHOT_VERSION = 2

#: Attributes stripped by :func:`merged_trace_signature` — everything
#: that legitimately varies run-to-run or with the worker count.
VOLATILE_ATTRS = frozenset(
    {"worker", "pid", "trace_id", "requeues", "thread", "attempt"}
)


class TraceContext:
    """What a parent propagates with a task: enough for the child to
    tag its telemetry and for the parent to stitch it back."""

    __slots__ = ("trace_id", "parent_span")

    def __init__(self, trace_id: str, parent_span: str = ""):
        self.trace_id = trace_id
        self.parent_span = parent_span

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"parent_span={self.parent_span!r})"
        )


def current_trace_context(parent_span: str = "") -> Optional[TraceContext]:
    """A :class:`TraceContext` for the active tracer, or ``None`` while
    tracing is off — the ``None`` is what keeps the disabled path free
    of telemetry work end to end."""
    tracer = get_tracer()
    if not tracer.enabled:
        return None
    return TraceContext(tracer.trace_id, parent_span)


# ----------------------------------------------------------------------
# span (de)serialization
# ----------------------------------------------------------------------

def _jsonable(value: Any) -> Any:
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


def span_to_dict(span: Span) -> Dict[str, Any]:
    """JSON-ready rendering of one span subtree."""
    return {
        "name": span.name,
        "category": span.category,
        "started": span.started,
        "wall": span.wall_seconds,
        "cpu": span.cpu_seconds,
        "thread": span.thread,
        "error": span.error,
        "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
        "children": [span_to_dict(child) for child in span.children],
    }


def span_from_dict(
    tracer: Tracer,
    data: Dict[str, Any],
    shift: float = 0.0,
    window: Optional[tuple] = None,
    process_id: int = 0,
    process_name: str = "",
) -> Span:
    """Rebuild a span subtree onto ``tracer``'s timeline.

    ``shift`` moves the recorded offsets into the parent's epoch;
    ``window`` (lo, hi) clamps the result so skewed child clocks stay
    inside the dispatching span.
    """
    span = Span(tracer, data["name"], data["category"], dict(data.get("attrs") or {}))
    started = float(data.get("started", 0.0)) + shift
    wall = max(0.0, float(data.get("wall", 0.0)))
    if window is not None:
        lo, hi = window
        started = min(max(started, lo), hi)
        wall = max(0.0, min(wall, hi - started))
    span.started = started
    span.wall_seconds = wall
    span.cpu_seconds = float(data.get("cpu", 0.0))
    span.thread = data.get("thread", "")
    span.error = data.get("error")
    span.process_id = process_id
    span.process_name = process_name
    span.children = [
        span_from_dict(
            tracer,
            child,
            shift=shift,
            window=(span.started, span.started + span.wall_seconds),
            process_id=process_id,
            process_name=process_name,
        )
        for child in data.get("children", ())
    ]
    return span


# ----------------------------------------------------------------------
# child side: capture + encode
# ----------------------------------------------------------------------

class Telemetry:
    """What :func:`capture` collected: live handles plus a snapshot."""

    def __init__(
        self,
        tracer: Tracer,
        registry: MetricsRegistry,
        worker: str = "",
    ):
        self.tracer = tracer
        self.registry = registry
        self.worker = worker

    def snapshot(self) -> Dict[str, Any]:
        import os

        return {
            "version": SNAPSHOT_VERSION,
            "trace_id": self.tracer.trace_id,
            "pid": os.getpid(),
            "worker": self.worker,
            "epoch_unix": self.tracer.epoch_unix,
            "spans": [span_to_dict(root) for root in self.tracer.roots()],
            "metrics": self.registry.export_state(),
        }

    def encode(self) -> bytes:
        return encode_snapshot(self.snapshot())


@contextmanager
def capture(
    context: Optional[TraceContext] = None, worker: str = ""
) -> Iterator[Telemetry]:
    """Collect telemetry around a task body in a child process.

    Installs a fresh tracer (carrying the propagated trace id) and
    metrics registry as the process-wide actives,
    runs the body, then restores whatever was installed before — the
    same child can capture many tasks back to back without their
    telemetry bleeding together.
    """
    tracer = Tracer()
    if context is not None and context.trace_id:
        tracer.trace_id = context.trace_id
    registry = MetricsRegistry()
    prev_tracer, prev_metrics = get_tracer(), get_metrics()
    set_tracer(tracer)
    set_metrics(registry)
    try:
        yield Telemetry(tracer, registry, worker=worker)
    finally:
        set_tracer(prev_tracer)
        set_metrics(prev_metrics)


def encode_snapshot(snapshot: Dict[str, Any]) -> bytes:
    return json.dumps(snapshot, sort_keys=True, default=repr).encode("utf-8")


def decode_snapshot(payload: bytes) -> Dict[str, Any]:
    """Parse a snapshot off the wire; raises ``ValueError`` when the
    bytes are not a snapshot (the corrupt-telemetry degradation path)."""
    try:
        snapshot = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"undecodable telemetry snapshot: {exc}") from exc
    if not isinstance(snapshot, dict) or "version" not in snapshot:
        raise ValueError("telemetry payload is not a snapshot")
    if snapshot["version"] != SNAPSHOT_VERSION:
        raise ValueError(
            f"telemetry snapshot version {snapshot['version']!r} "
            f"!= {SNAPSHOT_VERSION}"
        )
    return snapshot


# ----------------------------------------------------------------------
# parent side: merge
# ----------------------------------------------------------------------

def merge_snapshot(
    snapshot: Dict[str, Any],
    parent_span: Optional[Span] = None,
    tracer: Optional[Any] = None,
    registry: Optional[MetricsRegistry] = None,
    dispatched_unix: Optional[float] = None,
    worker_id: str = "",
) -> int:
    """Fold one child snapshot into the parent's telemetry.

    Spans attach as children of ``parent_span`` (the dispatch span),
    clock-skew-normalized onto the parent tracer's timeline and
    clamped into the dispatch window; metrics fold with ``worker.<id>``
    attribution.  Returns the number of spans attached.
    """
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_metrics()
    worker_id = worker_id or str(snapshot.get("worker") or "")
    label = f"worker.{worker_id}" if worker_id else "worker"

    attached = 0
    if parent_span is not None and getattr(tracer, "enabled", False):
        window = (
            parent_span.started,
            parent_span.started + parent_span.wall_seconds,
        )
        # Child offsets → parent offsets via the wall-clock delta
        # between the two tracer epochs.
        child_epoch = float(snapshot.get("epoch_unix") or 0.0)
        if child_epoch and dispatched_unix is not None:
            shift = window[0] + (child_epoch - dispatched_unix)
        else:
            shift = window[0]
        pid = int(snapshot.get("pid") or 0)
        for root in snapshot.get("spans", ()):
            parent_span.children.append(
                span_from_dict(
                    tracer,
                    root,
                    shift=shift,
                    window=window,
                    process_id=pid,
                    process_name=label,
                )
            )
            attached += 1

    metrics_state = snapshot.get("metrics") or {}
    if metrics_state:
        registry.merge_state(metrics_state, worker_id=worker_id)
    return attached


# ----------------------------------------------------------------------
# canonical signatures (determinism tests)
# ----------------------------------------------------------------------

def _canonical_span(span: Span) -> Dict[str, Any]:
    canon = {
        "name": span.name,
        "category": span.category,
        "error": span.error,
        "attrs": {
            key: _jsonable(value)
            for key, value in sorted(span.attrs.items())
            if key not in VOLATILE_ATTRS
        },
        "children": sorted(
            (_canonical_span(child) for child in span.children),
            key=lambda child: json.dumps(child, sort_keys=True),
        ),
    }
    return canon


def merged_trace_signature(tracer: Any, prefix: str = "dispatch:") -> str:
    """A canonical JSON rendering of every ``dispatch:*`` subtree.

    Strips everything volatile — timing, thread names, worker/pid
    attribution, requeue counts — and sorts children, so the same
    logical workload produces byte-identical signatures regardless of
    worker count, scheduling order, or clock behaviour.
    """
    subtrees = [
        _canonical_span(span)
        for span in getattr(tracer, "iter_spans", lambda: ())()
        if span.name.startswith(prefix)
    ]
    subtrees.sort(key=lambda tree: (tree["name"], json.dumps(tree, sort_keys=True)))
    return json.dumps(subtrees, sort_keys=True)
