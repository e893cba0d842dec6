"""repro.observability — tracing, metrics, and profiling hooks.

The instrumentation layer the rest of the stack reports into:

:func:`span` / :class:`Tracer`
    Nested wall/CPU-timed spans with attributes (tensor shape, nnz,
    rank, worker).  The default tracer is a no-op; CLIs install a real
    one for ``--trace`` / ``--profile``.
:class:`MetricsRegistry` / :func:`get_metrics`
    Process-wide counters, gauges and histograms.
:func:`write_chrome_trace` / :func:`flat_profile` / :func:`write_metrics`
    Exporters: ``chrome://tracing``-loadable JSON, a flat text
    self/cumulative profile per span category, and a JSON metrics dump.
:class:`TraceContext` / :func:`capture` / :func:`merge_snapshot`
    Distributed stitching: worker children record into a local
    tracer and metrics registry whose serialized snapshot rides home
    in the reply envelope and folds back under the dispatching span
    with ``worker.<id>`` attribution.
:func:`evaluate_slos` / ``python -m repro.observability slo --check``
    Declarative service-level objectives evaluated against a metrics
    snapshot, with nonzero exit on breach.

Span taxonomy (the categories the flat profile splits time across):

==============  ======================================================
category        covers
==============  ======================================================
sample          drawing cell coordinates / sub-ensemble selection
simulate        integrator batches and ground-truth construction
stitch          join / zero-join tensor assembly
decompose       SVDs, HOSVD/HOOI sweeps, M2TD core recovery
stitch-factor   combining pivot factor matrices (AVG/CONCAT/SELECT)
tensor-op       low-level unfold/TTM/matricize primitives
mapreduce       map/reduce tasks of the local engine
storage         block-store put/get/slice I/O
experiment      one CLI experiment run end to end
runtime-task    one live span per task attempt, under the span that
                submitted it
cache           runtime result-cache lookups (``hit`` attribute)
bench           one harness workload iteration (``repro.bench``)
serving         factor-space queries, batch drains, bundle loads
worker          supervised worker batches, dispatches, (re)spawns,
                deaths and inline fallbacks
campaign        adaptive campaign runs and their explore/confirm rounds
==============  ======================================================

This package imports nothing from the rest of ``repro`` so that every
layer (tensor primitives included) can depend on it freely.
"""

from .cli import add_observability_args, observe
from .distributed import (
    TraceContext,
    capture,
    current_trace_context,
    decode_snapshot,
    encode_snapshot,
    merge_snapshot,
    merged_trace_signature,
    span_from_dict,
    span_to_dict,
)
from .exporters import (
    chrome_trace,
    flat_profile,
    write_chrome_trace,
    write_flat_profile,
    write_metrics,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    get_metrics,
    set_metrics,
    use_metrics,
)
from .slo import (
    SLObjective,
    SLOReport,
    SLOResult,
    evaluate_slos,
    load_objectives,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    span,
    use_tracer,
)

__all__ = [
    "add_observability_args",
    "observe",
    "TraceContext",
    "capture",
    "current_trace_context",
    "decode_snapshot",
    "encode_snapshot",
    "merge_snapshot",
    "merged_trace_signature",
    "span_from_dict",
    "span_to_dict",
    "SLObjective",
    "SLOReport",
    "SLOResult",
    "evaluate_slos",
    "load_objectives",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "span",
    "use_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "get_metrics",
    "set_metrics",
    "use_metrics",
    "chrome_trace",
    "flat_profile",
    "write_chrome_trace",
    "write_flat_profile",
    "write_metrics",
]
