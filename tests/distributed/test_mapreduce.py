"""The local MapReduce engine: semantics and accounting."""

import numpy as np
import pytest

from repro.distributed import (
    LocalMapReduceEngine,
    MapReduceJob,
    payload_bytes,
)
from repro.exceptions import MapReduceError


def word_count_job():
    def map_fn(_key, line):
        for word in line.split():
            yield word, 1

    def reduce_fn(word, counts):
        yield word, sum(counts)

    return MapReduceJob(name="wordcount", map_fn=map_fn, reduce_fn=reduce_fn)


class TestEngine:
    def test_word_count(self):
        engine = LocalMapReduceEngine()
        records = [(i, line) for i, line in enumerate(
            ["a b a", "b c", "a"]
        )]
        output, stats = engine.run(word_count_job(), records)
        counts = dict(output)
        assert counts == {"a": 3, "b": 2, "c": 1}
        assert stats.name == "wordcount"

    def test_identity_map_when_none(self):
        job = MapReduceJob(
            name="sum", reduce_fn=lambda key, values: [(key, sum(values))]
        )
        output, _stats = engine_run(job, [("x", 1), ("x", 2), ("y", 5)])
        assert dict(output) == {"x": 3, "y": 5}

    def test_no_reduce_passthrough(self):
        job = MapReduceJob(
            name="flatten",
            map_fn=lambda key, value: [(key, value), (key, value * 2)],
        )
        output, _stats = engine_run(job, [("k", 3)])
        assert sorted(v for _k, v in output) == [3, 6]

    def test_map_error_wrapped(self):
        job = MapReduceJob(
            name="boom", map_fn=lambda key, value: 1 / 0
        )
        with pytest.raises(MapReduceError, match="boom"):
            engine_run(job, [("k", 1)])

    def test_reduce_error_wrapped(self):
        job = MapReduceJob(
            name="boom2",
            reduce_fn=lambda key, values: (_ for _ in ()).throw(ValueError("x")),
        )
        with pytest.raises(MapReduceError, match="boom2"):
            engine_run(job, [("k", 1)])

    def test_task_stats_counts(self):
        engine = LocalMapReduceEngine()
        _out, stats = engine.run(
            word_count_job(), [(0, "a b"), (1, "a")]
        )
        assert sum(t.records_in for t in stats.map_tasks) == 2
        assert sum(t.records_out for t in stats.map_tasks) == 3
        assert len(stats.reduce_tasks) == 2  # keys a, b
        assert stats.shuffle_bytes > 0

    def test_map_task_splitting(self):
        job = MapReduceJob(name="nop", map_fn=lambda k, v: [(k, v)], map_tasks=3)
        engine = LocalMapReduceEngine()
        _out, stats = engine.run(job, [(i, i) for i in range(7)])
        assert len(stats.map_tasks) == 3


def engine_run(job, records):
    return LocalMapReduceEngine().run(job, records)


def _count_map(key, line):
    for word in line.split():
        yield word, 1


def _count_reduce(word, counts):
    yield word, sum(counts)


def _drop_all_map(_key, _value):
    return []


def _picklable_count_job(map_tasks=2):
    return MapReduceJob(
        name="wordcount",
        map_fn=_count_map,
        reduce_fn=_count_reduce,
        map_tasks=map_tasks,
    )


class TestEdgeCases:
    """Degenerate inputs that once lived only in callers' heads:
    nothing to map, nothing to reduce, more workers than work."""

    @pytest.fixture(params=["inline", "threads", "supervised"])
    def any_engine(self, request):
        if request.param == "inline":
            engine = LocalMapReduceEngine()
        elif request.param == "threads":
            engine = LocalMapReduceEngine(4)
        else:
            engine = LocalMapReduceEngine(2, transport="process")
        yield engine
        engine.close()

    def test_empty_record_list(self, any_engine):
        output, stats = any_engine.run(_picklable_count_job(), [])
        assert output == []
        assert stats.reduce_tasks == []
        assert sum(t.records_in for t in stats.map_tasks) == 0

    def test_reduce_with_zero_keys(self, any_engine):
        job = MapReduceJob(
            name="void", map_fn=_drop_all_map, reduce_fn=_count_reduce
        )
        output, stats = any_engine.run(job, [(0, "a"), (1, "b")])
        assert output == []
        assert stats.reduce_tasks == []
        assert sum(t.records_in for t in stats.map_tasks) == 2
        assert sum(t.records_out for t in stats.map_tasks) == 0

    def test_more_workers_than_records(self, any_engine):
        output, stats = any_engine.run(
            _picklable_count_job(map_tasks=8), [(0, "solo")]
        )
        assert dict(output) == {"solo": 1}
        # splitting one record across 8 map tasks must not create
        # phantom work or drop the record
        assert sum(t.records_in for t in stats.map_tasks) == 1

    def test_many_workers_agree_with_sequential(self):
        records = [(i, "a b c a") for i in range(3)]
        sequential, _ = LocalMapReduceEngine(1).run(
            _picklable_count_job(), records
        )
        wide = LocalMapReduceEngine(16)
        try:
            parallel_out, _ = wide.run(_picklable_count_job(), records)
        finally:
            wide.close()
        assert parallel_out == sequential


class TestThreadedEngine:
    def test_equivalent_to_sequential(self):
        sequential, _s1 = LocalMapReduceEngine(n_workers=1).run(
            word_count_job(), [(i, "a b c a") for i in range(10)]
        )
        threaded, _s2 = LocalMapReduceEngine(n_workers=4).run(
            word_count_job(), [(i, "a b c a") for i in range(10)]
        )
        assert sorted(sequential) == sorted(threaded)

    def test_stats_equivalent(self):
        records = [(i, f"w{i % 3} common") for i in range(9)]
        _out1, s1 = LocalMapReduceEngine(1).run(word_count_job(), records)
        _out2, s2 = LocalMapReduceEngine(4).run(word_count_job(), records)
        assert len(s1.reduce_tasks) == len(s2.reduce_tasks)
        assert s1.shuffle_bytes == s2.shuffle_bytes

    def test_errors_propagate_from_threads(self):
        job = MapReduceJob(
            name="boom3",
            reduce_fn=lambda key, values: (_ for _ in ()).throw(ValueError()),
        )
        with pytest.raises(MapReduceError, match="boom3"):
            LocalMapReduceEngine(4).run(job, [("k", 1), ("j", 2)])

    def test_rejects_bad_worker_count(self):
        with pytest.raises(MapReduceError):
            LocalMapReduceEngine(0)

    def test_outputs_byte_identical_across_worker_counts(self):
        import pickle

        records = [(i, f"alpha beta w{i % 5}") for i in range(20)]
        out1, s1 = LocalMapReduceEngine(1).run(word_count_job(), records)
        out4, s4 = LocalMapReduceEngine(4).run(word_count_job(), records)
        assert pickle.dumps(out1) == pickle.dumps(out4)
        assert [t.task_id for t in s1.map_tasks] == [
            t.task_id for t in s4.map_tasks
        ]
        assert [t.task_id for t in s1.reduce_tasks] == [
            t.task_id for t in s4.reduce_tasks
        ]

    def test_map_tasks_actually_run_concurrently(self, monkeypatch):
        """The in-process thread venue: with ``M2TD_TRANSPORT`` unset the
        engine runs map tasks on its own threads, where the rendezvous
        closure needs no pickling."""
        import threading

        monkeypatch.delenv("M2TD_TRANSPORT", raising=False)
        barrier = threading.Barrier(2, timeout=5)

        def rendezvous(key, value):
            # Only passes if two map tasks are in flight at once.
            barrier.wait()
            yield key, value

        job = MapReduceJob(name="sync", map_fn=rendezvous, map_tasks=2)
        output, _stats = LocalMapReduceEngine(n_workers=2).run(
            job, [(0, "x"), (1, "y")]
        )
        assert sorted(output) == [(0, "x"), (1, "y")]

    def test_dm2td_agrees_across_worker_counts(
        self, dm2td_inputs, assert_identical_across_workers
    ):
        from repro.distributed import distributed_m2td

        x1, x2, part, ranks = dm2td_inputs
        assert_identical_across_workers(
            lambda workers: distributed_m2td(
                x1, x2, part, ranks, engine=LocalMapReduceEngine(workers)
            )
        )


class TestDeterminismWithTracing:
    """Worker count and tracing must both be invisible in the output:
    byte-identical results across --workers 1/2/4 with a live tracer."""

    def test_engine_byte_identical_across_workers_with_tracing(self):
        import pickle

        from repro.observability import Tracer, use_tracer

        records = [(i, f"alpha beta w{i % 5}") for i in range(20)]
        payloads, tracers = {}, {}
        for workers in (1, 2, 4):
            with use_tracer(Tracer()) as tracer:
                output, _stats = LocalMapReduceEngine(workers).run(
                    word_count_job(), records
                )
            payloads[workers] = pickle.dumps(output)
            tracers[workers] = tracer
        assert payloads[1] == payloads[2] == payloads[4]
        # The traced runs actually recorded map/reduce spans, with the
        # executing worker attributed on each one.
        spans = [
            s
            for s in tracers[4].iter_spans()
            if s.category == "mapreduce" and "worker" in s.attrs
        ]
        assert spans
        assert all(s.attrs["worker"] for s in spans)

    def test_dm2td_byte_identical_across_workers_with_tracing(
        self, dm2td_inputs, assert_identical_across_workers
    ):
        from repro.distributed import distributed_m2td
        from repro.observability import Tracer, use_tracer

        x1, x2, part, ranks = dm2td_inputs
        phase_cats = {}

        def run_traced(workers):
            with use_tracer(Tracer()) as tracer:
                run = distributed_m2td(
                    x1, x2, part, ranks,
                    engine=LocalMapReduceEngine(workers),
                )
            phase_cats[workers] = {s.category for s in tracer.iter_spans()}
            return run

        assert_identical_across_workers(run_traced)
        # Per-phase spans were recorded for every worker count.
        for workers in (1, 2, 4):
            assert {"decompose", "stitch", "stitch-factor"} <= (
                phase_cats[workers]
            )


class TestPayloadBytes:
    def test_ndarray(self):
        assert payload_bytes(np.zeros(10)) == 80

    def test_containers(self):
        assert payload_bytes((np.zeros(2), np.zeros(3))) == 16 + 24 + 8

    def test_string(self):
        assert payload_bytes("hello") == 5

    def test_scalar_flat_cost(self):
        assert payload_bytes(42) == 8

    def test_dict(self):
        assert payload_bytes({"a": np.zeros(1)}) == 1 + 8 + 8

    def test_numpy_scalars_use_their_itemsize(self):
        assert payload_bytes(np.float32(1.5)) == 4
        assert payload_bytes(np.int64(3)) == 8
        assert payload_bytes(np.bool_(True)) == 1
        assert payload_bytes(np.float64(0.0)) == 8

    def test_numpy_scalars_inside_containers(self):
        assert payload_bytes([np.float32(1.0), np.float32(2.0)]) == 8 + 8
