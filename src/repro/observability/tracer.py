"""Nested-span tracing with a zero-overhead no-op default.

The library's hot paths call :func:`span` unconditionally; whether
anything is recorded depends on the process-wide active tracer.  The
default is a :class:`NullTracer` whose ``span()`` hands back one shared
do-nothing context manager, so instrumentation costs a function call
and a dict build per site — the overhead-guard test bounds the total
against a pipeline run.

Spans nest per thread: each thread keeps its own open-span stack, so a
span opened on an executor worker becomes a top-level span of that
thread unless the worker adopts the submitting thread's open span
(:meth:`Tracer.adopt` — the runtime scheduler does, so task spans nest
under whatever span submitted them).  Every span records wall time
(``perf_counter``), CPU time (``process_time``), its thread name, and
free-form attributes (tensor shape, nnz, rank, worker id, ...).

Timestamps are offsets from the tracer's construction (its *epoch*),
which is what the Chrome-trace exporter wants.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "span",
    "use_tracer",
]


class Span:
    """One timed, attributed, possibly-nested trace span."""

    __slots__ = (
        "name",
        "category",
        "started",
        "wall_seconds",
        "cpu_seconds",
        "attrs",
        "children",
        "thread",
        "error",
        "process_id",
        "process_name",
        "_tracer",
        "_cpu_started",
    )

    def __init__(
        self, tracer: "Tracer", name: str, category: str, attrs: Dict[str, Any]
    ):
        self.name = name
        self.category = category
        self.attrs = attrs
        #: Offset from the tracer's epoch, in seconds.
        self.started = 0.0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.children: List["Span"] = []
        self.thread = ""
        self.error: Optional[str] = None
        #: Originating process: 0 / "" mean "this process"; merged
        #: worker spans carry the child's real pid and a worker label,
        #: which the Chrome exporter turns into separate pid lanes.
        self.process_id = 0
        self.process_name = ""
        self._tracer = tracer
        self._cpu_started = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes discovered mid-span (e.g. an output nnz)."""
        self.attrs.update(attrs)
        return self

    @property
    def self_seconds(self) -> float:
        """Wall time not covered by child spans.

        Children that overlap (parallel tasks under one parent) cover
        the union of their intervals, clipped to this span's window.
        """
        lo, hi = self.started, self.started + self.wall_seconds
        covered, reached = 0.0, lo
        for child in sorted(self.children, key=lambda c: c.started):
            start = max(child.started, reached)
            end = min(child.started + child.wall_seconds, hi)
            if end > start:
                covered += end - start
                reached = end
        return max(0.0, self.wall_seconds - covered)

    def __enter__(self) -> "Span":
        self.started = time.perf_counter() - self._tracer.epoch
        self._cpu_started = time.process_time()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.wall_seconds = (
            time.perf_counter() - self._tracer.epoch - self.started
        )
        self.cpu_seconds = time.process_time() - self._cpu_started
        if exc_type is not None:
            self.error = exc_type.__name__
        self._tracer._pop(self)
        return False

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, category={self.category!r}, "
            f"wall={self.wall_seconds:.6f}s, children={len(self.children)})"
        )


class _NullSpan:
    """Shared do-nothing stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc_info: Any) -> bool:
        return False

    def set(self, **_attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a forest of spans, one tree set per thread."""

    enabled = True

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        #: Wall-clock time of the epoch — what lets spans recorded by a
        #: *different* process (its own perf_counter domain) be mapped
        #: onto this tracer's timeline during a distributed merge.
        self.epoch_unix = time.time()
        #: Correlates spans across processes: the id rides inside every
        #: propagated TraceContext and comes back in worker telemetry.
        self.trace_id = uuid.uuid4().hex[:16]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: List[Span] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "misc", **attrs: Any) -> Span:
        """A new span; use as a context manager."""
        return Span(self, name, category, attrs)

    def current(self) -> Optional[Span]:
        """The innermost span open on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def adopt(self, parent: Optional[Span]) -> Iterator[None]:
        """Nest spans opened on this thread under ``parent``.

        ``parent`` is a span still open on another thread (the one that
        submitted this thread's work); it goes on this thread's stack
        for the duration, so spans closed here attach as its children
        rather than becoming roots.  A no-op when ``parent`` is
        ``None`` or already innermost (the inline case).
        """
        stack = self._stack()
        if parent is None or (stack and stack[-1] is parent):
            yield
            return
        stack.append(parent)
        try:
            yield
        finally:
            if stack and stack[-1] is parent:
                stack.pop()

    # ------------------------------------------------------------------
    # per-thread stack plumbing
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, entered: Span) -> None:
        self._stack().append(entered)

    def _pop(self, exited: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is exited:
            stack.pop()
        else:  # pragma: no cover - misnested exit; drop defensively
            if exited in stack:
                stack.remove(exited)
        exited.thread = threading.current_thread().name
        if stack:
            stack[-1].children.append(exited)
        else:
            with self._lock:
                self._roots.append(exited)

    # ------------------------------------------------------------------
    # reading the trace back
    # ------------------------------------------------------------------
    def roots(self) -> List[Span]:
        """Completed top-level spans (all threads), in start order."""
        with self._lock:
            return sorted(self._roots, key=lambda s: s.started)

    def iter_spans(self) -> Iterator[Span]:
        """Every completed span, depth-first within each root."""
        for root in self.roots():
            yield from root.walk()

    @property
    def n_spans(self) -> int:
        return sum(1 for _ in self.iter_spans())

    def total_wall_seconds(self) -> float:
        """Summed wall time of the top-level spans."""
        return sum(root.wall_seconds for root in self.roots())

    def clear(self) -> None:
        with self._lock:
            self._roots = []


class NullTracer:
    """The disabled default: records nothing, allocates nothing."""

    enabled = False
    epoch = 0.0
    epoch_unix = 0.0
    trace_id = ""

    def span(self, name: str, category: str = "misc", **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def roots(self) -> List[Span]:
        return []

    def iter_spans(self) -> Iterator[Span]:
        return iter(())

    n_spans = 0

    def total_wall_seconds(self) -> float:
        return 0.0

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()

_active: Any = NULL_TRACER


def get_tracer() -> Any:
    """The process-wide active tracer (a :class:`NullTracer` unless
    tracing was switched on via :func:`set_tracer`/:func:`use_tracer`)."""
    return _active


def set_tracer(tracer: Optional[Any]) -> None:
    """Install ``tracer`` process-wide; ``None`` restores the no-op."""
    global _active
    _active = tracer if tracer is not None else NULL_TRACER


def span(name: str, category: str = "misc", **attrs: Any) -> Any:
    """Open a span on the active tracer (no-op while disabled).

    This is the one call instrumented code sites use::

        with span("hosvd", "decompose", shape=tensor.shape, ranks=ranks):
            ...
    """
    tracer = _active
    if not tracer.enabled:
        return _NULL_SPAN
    return tracer.span(name, category, **attrs)


@contextmanager
def use_tracer(tracer: Optional[Any]) -> Iterator[Any]:
    """Temporarily install a tracer (tests and CLIs)."""
    previous = _active
    set_tracer(tracer)
    try:
        yield _active
    finally:
        set_tracer(previous)
