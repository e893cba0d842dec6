"""MetricsRegistry: counters, gauges, histograms, and the JSON dump."""

import json
import random
import threading

import pytest

from repro.observability import (
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    get_metrics,
    set_metrics,
    use_metrics,
)


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("svd.calls")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4.0

    def test_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_same_name_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_thread_safe_under_contention(self):
        counter = MetricsRegistry().counter("c")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 4000.0


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("workers")
        assert gauge.value is None
        gauge.set(4)
        gauge.set(2)
        assert gauge.value == 2.0


class TestHistogram:
    def test_summary_stats(self):
        hist = MetricsRegistry().histogram("rank")
        for value in (2, 4, 6):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 12.0
        assert hist.min == 2.0
        assert hist.max == 6.0
        assert hist.mean == 4.0

    def test_empty_mean_is_none(self):
        assert MetricsRegistry().histogram("h").mean is None

    def test_percentiles(self):
        hist = MetricsRegistry().histogram("lat")
        for value in range(1, 101):  # 1..100
            hist.observe(value)
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(90) == pytest.approx(90.1)
        assert hist.percentile(99) == pytest.approx(99.01)
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 100.0

    def test_empty_percentile_is_none(self):
        assert MetricsRegistry().histogram("h").percentile(50) is None

    def test_percentiles_from_one_sort_match_percentile(self):
        """``percentiles`` sorts once and gives each ``percentile``
        bit for bit, on an unsorted, decimated buffer too."""
        hist = MetricsRegistry().histogram("lat")
        hist.observe_many((i * 7919) % 10007 / 3.0 for i in range(20000))
        qs = (0, 12.5, 50, 90, 99, 100)
        assert hist.percentiles(*qs) == [hist.percentile(q) for q in qs]
        expected = sorted(hist._samples)
        position = (len(expected) - 1) * 0.9
        low, high = int(position), int(position) + 1
        weight = position - low
        assert hist.percentile(90) == (
            expected[low] * (1.0 - weight) + expected[high] * weight
        )
        assert MetricsRegistry().histogram("h").percentiles(50, 90) == [
            None, None
        ]

    def test_as_dict_exports_percentiles(self):
        hist = MetricsRegistry().histogram("h")
        for value in (1, 2, 3):
            hist.observe(value)
        dumped = hist.as_dict()
        assert dumped["p50"] == 2.0
        assert dumped["p90"] == pytest.approx(2.8)
        assert dumped["p99"] == pytest.approx(2.98)

    def test_decimation_bounds_memory_and_keeps_shape(self):
        hist = MetricsRegistry().histogram("big")
        hist.max_samples = 64  # shrink the ceiling for the test
        for value in range(10_000):
            hist.observe(value)
        assert len(hist._samples) < 128
        assert hist.count == 10_000
        # The decimated percentile still tracks the true distribution.
        assert abs(hist.percentile(50) - 5_000) < 1_000

    @staticmethod
    def _state(hist):
        return (
            hist.count, hist.total, hist.min, hist.max,
            list(hist._samples), hist._stride, hist._since_kept,
        )

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
    def test_observe_many_is_repeated_observe(self, chunk):
        """One locked call per list leaves exactly the state one
        ``observe`` per value does, past several decimations."""
        values = [((v * 7919) % 1009) / 13.0 - 20.0 for v in range(1000)]
        one = Histogram("one")
        many = Histogram("many")
        one.max_samples = many.max_samples = 16
        for value in values:
            one.observe(value)
        for start in range(0, len(values), chunk):
            many.observe_many(values[start:start + chunk])
        assert self._state(many) == self._state(one)
        assert one._stride > 1  # decimation ran
        # and the fold is the plain in-order one
        total = 0.0
        for value in values:
            total += value
        assert one.count == len(values) and one.total == total
        assert (one.min, one.max) == (min(values), max(values))
        # keep every stride-th value; halve the buffer when it fills
        samples, stride, since = [], 1, 0
        for value in values:
            since += 1
            if since >= stride:
                since = 0
                samples.append(value)
                if len(samples) >= 16:
                    samples, stride = samples[::2], stride * 2
        assert (one._samples, one._stride, one._since_kept) == (
            samples, stride, since
        )

    def test_random_batches_match_one_observe_per_value(self):
        """At the real sample ceiling, random batches of 0–130 values
        (some straddling a decimation) leave the state one ``observe``
        per value does while the stride climbs 1, 2, 4, 8."""
        rng = random.Random(0)
        one = Histogram("one")
        many = Histogram("many")
        strides = {many._stride}
        while one.count <= 4 * Histogram.max_samples + 100:
            batch = [rng.uniform(-1e3, 1e3) for _ in range(rng.randint(0, 130))]
            for value in batch:
                one.observe(value)
            many.observe_many(batch)
            strides.add(many._stride)
        assert strides == {1, 2, 4, 8}
        assert many.count == one.count
        assert many.total.hex() == one.total.hex()
        assert (many.min, many.max) == (one.min, one.max)
        assert many._samples == one._samples
        assert (many._stride, many._since_kept) == (
            one._stride, one._since_kept
        )

    def test_observe_many_of_nothing_is_a_no_op(self):
        hist = Histogram("empty")
        hist.observe_many([])
        assert hist.count == 0 and hist.min is None


class TestSnapshotDiff:
    def test_counter_delta(self):
        registry = MetricsRegistry()
        registry.counter("calls").inc(2)
        before = registry.snapshot()
        registry.counter("calls").inc(3)
        delta = registry.diff(before)
        assert delta["calls"] == {"kind": "counter", "value": 3.0}

    def test_unchanged_metrics_are_omitted(self):
        registry = MetricsRegistry()
        registry.counter("quiet").inc()
        registry.gauge("level").set(4)
        registry.histogram("h").observe(1)
        before = registry.snapshot()
        assert registry.diff(before) == {}

    def test_metric_born_inside_window_reports_full_value(self):
        registry = MetricsRegistry()
        before = registry.snapshot()
        registry.counter("new").inc(7)
        assert registry.diff(before)["new"]["value"] == 7.0

    def test_gauge_reports_new_value(self):
        registry = MetricsRegistry()
        registry.gauge("workers").set(1)
        before = registry.snapshot()
        registry.gauge("workers").set(4)
        assert registry.diff(before)["workers"] == {
            "kind": "gauge", "value": 4.0,
        }

    def test_histogram_window_delta(self):
        registry = MetricsRegistry()
        registry.histogram("rank").observe(100)
        before = registry.snapshot()
        registry.histogram("rank").observe(2)
        registry.histogram("rank").observe(4)
        delta = registry.diff(before)["rank"]
        assert delta["count"] == 2
        assert delta["sum"] == 6.0
        assert delta["mean"] == 3.0

    def test_diff_snapshots_is_pure(self):
        before = {"c": {"kind": "counter", "value": 1.0}}
        after = {"c": {"kind": "counter", "value": 4.0}}
        assert diff_snapshots(before, after) == {
            "c": {"kind": "counter", "value": 3.0}
        }
        # inputs untouched
        assert before["c"]["value"] == 1.0


class TestRegistry:
    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_contains_and_names(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert "a" in registry and "b" in registry
        assert "missing" not in registry
        assert registry.names() == ["a", "b"]

    def test_as_dict_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("calls").inc(2)
        registry.histogram("sizes").observe(10)
        snapshot = registry.as_dict()
        assert snapshot["calls"] == {"kind": "counter", "value": 2.0}
        assert snapshot["sizes"]["kind"] == "histogram"
        assert snapshot["sizes"]["count"] == 1

    def test_json_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1.5)
        path = tmp_path / "metrics.json"
        registry.write_json(str(path))
        loaded = json.loads(path.read_text())
        assert loaded == registry.as_dict()

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("c")
        registry.clear()
        assert registry.names() == []


class TestGlobalRegistry:
    def test_use_metrics_installs_fresh_and_restores(self):
        before = get_metrics()
        with use_metrics() as registry:
            assert get_metrics() is registry
            assert registry is not before
            registry.counter("scoped").inc()
        assert get_metrics() is before
        assert "scoped" not in get_metrics()

    def test_set_metrics_none_installs_fresh(self):
        before = get_metrics()
        try:
            set_metrics(None)
            assert get_metrics() is not before
        finally:
            set_metrics(before)

    def test_library_populates_global_registry(self, rng):
        from repro.tensor import truncated_svd

        with use_metrics() as registry:
            truncated_svd(rng.standard_normal((6, 5)), 2)
            assert registry.counter("svd.calls").value == 1.0
            assert registry.histogram("svd.rank").max == 2.0
