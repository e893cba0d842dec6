"""Counters, gauges and histograms behind one process-wide registry.

Metrics complement spans: a span answers "where did this second go",
a metric answers "how many SVDs / simulated cells / shuffled bytes did
this process see in total".  Updates are cheap (a per-metric lock and
an add), so the registry is always live — the ``--metrics`` CLI flag
only controls whether the dump is written.
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "get_metrics",
    "set_metrics",
    "use_metrics",
]


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Summary statistics of an observed distribution.

    Keeps count/sum/min/max (and derives the mean), plus a bounded
    sample buffer from which p50/p90/p99 are computed.  When more than
    ``max_samples`` values arrive the buffer is decimated (every second
    retained sample is dropped), so the percentiles degrade gracefully
    to an even subsample of the stream instead of growing without
    bound — deterministic, unlike a random reservoir.
    """

    kind = "histogram"

    #: Retained-sample ceiling before deterministic decimation kicks in.
    max_samples = 8192

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._stride = 1
        self._since_kept = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values) -> None:
        """Observe each value in turn, under one lock: the same count,
        sum (added in order), min, max and retained samples as one
        :meth:`observe` per value."""
        values = list(map(float, values))
        if not values:
            return
        with self._lock:
            self.count += len(values)
            # added in order, never with builtin sum(): it compensates
            # its rounding on Python 3.12+, so it would differ from
            # observe (and this loop outruns functools.reduce(add))
            total = self.total
            for value in values:
                total += value
            self.total = total
            # builtin min/max scan left to right, exactly as a fold of
            # two-argument min/max does (NaN included)
            if self.min is None:
                self.min, self.max = min(values), max(values)
            else:
                self.min = min(self.min, *values)
                self.max = max(self.max, *values)
            samples = self._samples
            stride, since = self._stride, self._since_kept
            # the values whose turn to be kept comes up in this call
            kept = values[stride - since - 1::stride]
            if len(samples) + len(kept) < self.max_samples:
                samples.extend(kept)
                self._since_kept = (since + len(values)) % stride
                return
            for value in values:  # a decimation falls inside the call
                since += 1
                if since >= stride:
                    since = 0
                    samples.append(value)
                    if len(samples) >= self.max_samples:
                        samples = samples[::2]
                        stride *= 2
            self._samples = samples
            self._stride, self._since_kept = stride, since

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """The q-th percentile (0-100) of the retained samples, with
        linear interpolation; ``None`` while empty."""
        return self.percentiles(q)[0]

    def percentiles(self, *qs: float) -> List[Optional[float]]:
        """:meth:`percentile` for each of ``qs``, from one sort of the
        retained samples (a full buffer is 8192 floats; numpy sorts it
        in a fraction of ``sorted``'s time)."""
        with self._lock:
            samples = np.sort(np.asarray(self._samples, dtype=np.float64))
        if not samples.size:
            return [None] * len(qs)
        values = []
        for q in qs:
            position = (samples.size - 1) * (float(q) / 100.0)
            lower = math.floor(position)
            upper = math.ceil(position)
            weight = position - lower
            values.append(
                float(samples[lower]) * (1.0 - weight)
                + float(samples[upper]) * weight
            )
        return values

    def as_dict(self) -> Dict[str, Any]:
        p50, p90, p99 = self.percentiles(50, 90, 99)
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": p50,
            "p90": p90,
            "p99": p99,
        }

    def export_state(self) -> Dict[str, Any]:
        """Mergeable state: summary stats *plus* the retained samples,
        so a receiving registry can fold this histogram in without
        losing its percentiles (the distributed-telemetry path)."""
        with self._lock:
            return {
                "kind": self.kind,
                "count": self.count,
                "sum": self.total,
                "min": self.min,
                "max": self.max,
                "samples": list(self._samples),
            }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`export_state` into this one.

        Count/sum/min/max add exactly; the sample buffers concatenate
        and re-decimate deterministically, so merged percentiles stay
        an even subsample of the combined stream.
        """
        count = int(state.get("count", 0))
        if count <= 0:
            return
        low = state.get("min")
        high = state.get("max")
        with self._lock:
            self.count += count
            self.total += float(state.get("sum", 0.0))
            if low is not None:
                self.min = low if self.min is None else min(self.min, low)
            if high is not None:
                self.max = (
                    high if self.max is None else max(self.max, high)
                )
            self._samples.extend(
                float(v) for v in state.get("samples", ())
            )
            while len(self._samples) >= self.max_samples:
                self._samples = self._samples[::2]
                self._stride *= 2


class MetricsRegistry:
    """Named metrics, created on first use, one instance per name.

    Asking for an existing name with a different kind is an error —
    silent kind changes would corrupt every dashboard reading the dump.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls: type) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, requested {cls.kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list:
        with self._lock:
            return sorted(self._metrics)

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """``{name: {kind, value(s)}}`` snapshot, names sorted."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: metric.as_dict() for name, metric in items}

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A frozen copy of the current state, for later :meth:`diff`.

        Identical in shape to :meth:`as_dict`; the separate name marks
        intent — snapshots are taken *before* a measured region so the
        region's own activity can be isolated afterwards.
        """
        return self.as_dict()

    def diff(self, before: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
        """What changed since ``before`` (a :meth:`snapshot`).

        See :func:`diff_snapshots` for the delta semantics.  This is
        the benchmark-harness idiom: snapshot, run N iterations, diff —
        counters accumulated by earlier iterations (or warmup) never
        cross-contaminate the reported window.
        """
        return diff_snapshots(before, self.snapshot())

    def export_state(self) -> Dict[str, Dict[str, Any]]:
        """A mergeable snapshot: like :meth:`as_dict` but histograms
        carry their retained samples so :meth:`merge_state` can fold
        them without flattening the percentiles."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {
            name: (
                metric.export_state()
                if isinstance(metric, Histogram)
                else metric.as_dict()
            )
            for name, metric in items
        }

    def merge_state(
        self, state: Dict[str, Dict[str, Any]], worker_id: str = ""
    ) -> None:
        """Fold another registry's :meth:`export_state` into this one.

        Counters and histograms add into the global metric of the same
        name; when ``worker_id`` is given each also adds into a
        ``worker.<id>.<name>`` attributed copy, so per-worker
        breakdowns survive the merge.  Gauges fold as the attributed
        copy *only* — a global last-write across workers would depend
        on arrival order.
        """
        prefix = f"worker.{worker_id}." if worker_id else ""
        for name, metric in sorted(state.items()):
            kind = metric.get("kind")
            if kind == "counter":
                value = float(metric.get("value") or 0.0)
                if value:
                    self.counter(name).inc(value)
                    if prefix:
                        self.counter(prefix + name).inc(value)
            elif kind == "gauge":
                value = metric.get("value")
                if value is not None:
                    self.gauge((prefix + name) if prefix else name).set(value)
            elif kind == "histogram":
                self.histogram(name).merge_state(metric)
                if prefix:
                    self.histogram(prefix + name).merge_state(metric)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    def clear(self) -> None:
        with self._lock:
            self._metrics = {}


def diff_snapshots(
    before: Dict[str, Dict[str, Any]], after: Dict[str, Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Delta between two registry snapshots (``snapshot()`` outputs).

    * counters: ``value`` is the increase over the window; unchanged
      counters are omitted;
    * gauges: included with their ``after`` value when it changed;
    * histograms: ``count``/``sum`` are window deltas (with the derived
      window ``mean``); unchanged histograms are omitted.

    Metrics absent from ``before`` diff against a zero baseline, so a
    metric born inside the window reports its full value.
    """
    delta: Dict[str, Dict[str, Any]] = {}
    for name, state in after.items():
        prior = before.get(name)
        kind = state.get("kind")
        if kind == "counter":
            base = prior.get("value", 0.0) if prior else 0.0
            change = state.get("value", 0.0) - base
            if change:
                delta[name] = {"kind": "counter", "value": change}
        elif kind == "gauge":
            base = prior.get("value") if prior else None
            if state.get("value") != base:
                delta[name] = {"kind": "gauge", "value": state.get("value")}
        elif kind == "histogram":
            base_count = prior.get("count", 0) if prior else 0
            base_sum = prior.get("sum", 0.0) if prior else 0.0
            d_count = state.get("count", 0) - base_count
            d_sum = state.get("sum", 0.0) - base_sum
            if d_count:
                delta[name] = {
                    "kind": "histogram",
                    "count": d_count,
                    "sum": d_sum,
                    "mean": d_sum / d_count,
                }
        else:  # pragma: no cover - future metric kinds pass through
            if state != prior:
                delta[name] = dict(state)
    return delta


_registry = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def set_metrics(registry: Optional[MetricsRegistry]) -> None:
    """Swap the process-wide registry (``None`` installs a fresh one)."""
    global _registry
    _registry = registry if registry is not None else MetricsRegistry()


@contextmanager
def use_metrics(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Temporarily install a (fresh by default) registry — test idiom."""
    previous = _registry
    set_metrics(registry or MetricsRegistry())
    try:
        yield _registry
    finally:
        set_metrics(previous)
