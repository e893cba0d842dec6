"""Trace and metrics exporters.

Three output formats, matched to three consumers:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome trace
  event format (load the JSON file in ``chrome://tracing`` or Perfetto
  to see the span forest on a per-thread timeline);
* :func:`flat_profile` — a plain-text self/cumulative profile per span
  category (and per span name within it), the quick "where did the
  time go" answer for terminals and BENCH files;
* :func:`write_metrics` — the :class:`~repro.observability.metrics.
  MetricsRegistry` snapshot as JSON.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry, get_metrics
from .tracer import Span, Tracer

__all__ = [
    "chrome_trace",
    "flat_profile",
    "write_chrome_trace",
    "write_flat_profile",
    "write_metrics",
]


def _json_safe(value: Any) -> Any:
    """Coerce span attributes to JSON-serialisable primitives."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    # numpy scalars expose .item(); anything else falls back to repr.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _json_safe(item())
        except Exception:
            pass
    return repr(value)


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The tracer's span forest as a Chrome trace-event document.

    Every span becomes one complete (``"ph": "X"``) event with
    microsecond timestamps relative to the tracer epoch; threads map to
    ``tid`` rows named by metadata events, so executor workers show up
    as their own swimlanes.  Spans merged in from *other* processes
    (worker telemetry) keep their originating pid, so each worker
    renders as its own named process lane instead of everything being
    flattened onto one row.
    """
    events: List[Dict[str, Any]] = []
    thread_ids: Dict[Tuple[int, str], int] = {}
    named_pids: Dict[int, str] = {}
    local_pid = os.getpid()

    def pid_for(span: Span) -> int:
        pid = span.process_id or local_pid
        if pid not in named_pids:
            named_pids[pid] = span.process_name or "main"
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": named_pids[pid]},
                }
            )
        return pid

    def tid_for(pid: int, thread: str) -> int:
        key = (pid, thread)
        if key not in thread_ids:
            thread_ids[key] = len(thread_ids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": thread_ids[key],
                    "args": {"name": thread or "unknown"},
                }
            )
        return thread_ids[key]

    for span in tracer.iter_spans():
        args = {k: _json_safe(v) for k, v in span.attrs.items()}
        args["cpu_seconds"] = round(span.cpu_seconds, 6)
        if span.error is not None:
            args["error"] = span.error
        pid = pid_for(span)
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.started * 1e6,
                "dur": span.wall_seconds * 1e6,
                "pid": pid,
                "tid": tid_for(pid, span.thread),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    # json.dumps without indent runs the C encoder; json.dump and any
    # indent fall back to the pure-Python one, several times slower.
    text = json.dumps(chrome_trace(tracer))
    with open(path, "w") as handle:
        handle.write(text + "\n")


# ----------------------------------------------------------------------
# flat text profile
# ----------------------------------------------------------------------
def _aggregate(
    tracer: Tracer,
) -> Tuple[Dict[str, Dict[str, float]], Dict[Tuple[str, str], Dict[str, float]]]:
    """Aggregate self/cumulative seconds per category and per name.

    Cumulative time for a category counts a span only when no ancestor
    shares its category — otherwise recursive decompositions (HOSVD
    inside M2TD inside an experiment) would double-count.
    """
    by_category: Dict[str, Dict[str, float]] = {}
    by_name: Dict[Tuple[str, str], Dict[str, float]] = {}

    def visit(span: Span, ancestor_categories: frozenset) -> None:
        cat = by_category.get(span.category)
        if cat is None:
            cat = by_category[span.category] = {
                "calls": 0, "self": 0.0, "cum": 0.0, "cpu": 0.0
            }
        own = span.self_seconds
        cat["calls"] += 1
        cat["self"] += own
        cat["cpu"] += span.cpu_seconds
        nested = ancestor_categories
        if span.category not in ancestor_categories:
            cat["cum"] += span.wall_seconds
            nested = ancestor_categories | {span.category}
        key = (span.category, span.name)
        name = by_name.get(key)
        if name is None:
            name = by_name[key] = {"calls": 0, "self": 0.0}
        name["calls"] += 1
        name["self"] += own
        for child in span.children:
            visit(child, nested)

    for root in tracer.roots():
        visit(root, frozenset())
    return by_category, by_name


def flat_profile(tracer: Tracer, top: Optional[int] = None) -> str:
    """Plain-text profile: self/cumulative wall time per span category,
    with a per-span-name breakdown under each category.

    ``self`` is wall time not covered by child spans; ``cum`` is wall
    time of the outermost spans of the category (nested same-category
    spans are not double-counted); ``self%`` is against the summed
    self time, so the column adds up to 100%.
    """
    by_category, by_name = _aggregate(tracer)
    total = tracer.total_wall_seconds()
    total_self = sum(agg["self"] for agg in by_category.values())
    n_spans = sum(int(agg["calls"]) for agg in by_category.values())
    lines = [
        f"flat profile — {n_spans} spans, "
        f"{total:.3f}s total top-level wall time",
        "",
        f"{'category':<16} {'calls':>7} {'self(s)':>10} "
        f"{'cum(s)':>10} {'cpu(s)':>10} {'self%':>7}",
        "-" * 64,
    ]
    ordered = sorted(
        by_category.items(), key=lambda item: item[1]["self"], reverse=True
    )
    for category, agg in ordered:
        pct = 100.0 * agg["self"] / total_self if total_self > 0 else 0.0
        lines.append(
            f"{category:<16} {int(agg['calls']):>7} {agg['self']:>10.4f} "
            f"{agg['cum']:>10.4f} {agg['cpu']:>10.4f} {pct:>6.1f}%"
        )
        names = sorted(
            (
                (name, agg2)
                for (cat2, name), agg2 in by_name.items()
                if cat2 == category
            ),
            key=lambda item: item[1]["self"],
            reverse=True,
        )
        if top is not None:
            names = names[:top]
        for name, agg2 in names:
            lines.append(
                f"  {name:<21} {int(agg2['calls']):>7} {agg2['self']:>10.4f}"
            )
    return "\n".join(lines)


def write_flat_profile(
    tracer: Tracer, path: str, top: Optional[int] = None
) -> None:
    with open(path, "w") as handle:
        handle.write(flat_profile(tracer, top=top) + "\n")


def write_metrics(path: str, registry: Optional[MetricsRegistry] = None) -> None:
    """Dump a metrics registry (the global one by default) as JSON."""
    (registry or get_metrics()).write_json(path)
