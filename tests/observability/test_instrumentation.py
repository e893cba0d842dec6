"""End-to-end instrumentation: category coverage, wall-time accounting,
the CLI ``--trace`` flag, the runtime bridge, and the overhead guard."""

import json
import time

import pytest

import numpy as np

from repro.core import EnsembleStudy
from repro.observability import (
    MetricsRegistry,
    NullTracer,
    Tracer,
    flat_profile,
    get_metrics,
    get_tracer,
    span,
    use_metrics,
    use_tracer,
)
from repro.runtime import Runtime, TaskGraph
from repro.sampling import (
    GridSampler,
    LatinHypercubeSampler,
    RandomSampler,
    SliceSampler,
)
from repro.simulation import DoublePendulum
from repro.storage import BlockTensorStore
from repro.tensor import SparseTensor

def _traced_work(x):
    with span("child-work", "tensor-op", x=x):
        get_metrics().counter("child.calls").inc()
    return x * 2


#: the flat profile must split pipeline time across these.
PIPELINE_CATEGORIES = {
    "sample",
    "simulate",
    "stitch",
    "decompose",
    "stitch-factor",
}


@pytest.fixture(scope="module")
def pipeline_tracer():
    """One fully traced pipeline run: study construction + M2TD."""
    with use_tracer(Tracer()) as tracer:
        study = EnsembleStudy.create(DoublePendulum(), resolution=5)
        study.run_m2td([2] * study.space.n_modes, variant="select", seed=7)
    return tracer


class TestPipelineCoverage:
    def test_all_pipeline_categories_present(self, pipeline_tracer):
        categories = {s.category for s in pipeline_tracer.iter_spans()}
        assert PIPELINE_CATEGORIES <= categories

    def test_flat_profile_splits_time_across_categories(self, pipeline_tracer):
        text = flat_profile(pipeline_tracer)
        for category in PIPELINE_CATEGORIES:
            assert category in text

    def test_spans_carry_shape_attributes(self, pipeline_tracer):
        decompose = [
            s
            for s in pipeline_tracer.iter_spans()
            if s.category == "decompose" and "shape" in s.attrs
        ]
        assert decompose

    def test_stitch_spans_report_join_nnz(
        self, pipeline_tracer, pendulum_study
    ):
        """The fixture's full-density cross sample is a complete join;
        a random sample is a partial one.  Neither builds a
        ``join-tensor``, and each ``m2td-stitch`` reports its
        ``join_nnz``."""
        names = [s.name for s in pipeline_tracer.iter_spans()]
        assert "join-tensor" not in names
        (stitch,) = [
            s for s in pipeline_tracer.iter_spans() if s.name == "m2td-stitch"
        ]
        (core,) = [
            s for s in pipeline_tracer.iter_spans() if s.name == "m2td-core"
        ]
        assert core.attrs["complete"] is True
        # resolution 5 over five modes: the join space is all 5**5 cells
        assert stitch.attrs["join_nnz"] == 5**5

        with use_tracer(Tracer()) as tracer:
            pendulum_study.run_m2td(
                [2] * pendulum_study.space.n_modes, free_fraction=0.5,
                sub_sampling="random", seed=7,
            )
        names = [s.name for s in tracer.iter_spans()]
        assert "join-tensor" not in names
        stitches = [s for s in tracer.iter_spans() if s.name == "m2td-stitch"]
        assert stitches and all(s.attrs["join_nnz"] > 0 for s in stitches)
        cores = [s for s in tracer.iter_spans() if s.name == "m2td-core"]
        assert cores and all(s.attrs["complete"] is False for s in cores)


class TestWallTimeAccounting:
    def test_top_level_spans_cover_ninety_percent(self, pendulum_study):
        ranks = [2] * pendulum_study.space.n_modes
        started = time.perf_counter()
        with use_tracer(Tracer()) as tracer:
            with span("pipeline", "experiment"):
                pendulum_study.run_m2td(ranks, variant="select", seed=7)
        elapsed = time.perf_counter() - started
        assert tracer.total_wall_seconds() >= 0.9 * elapsed


class TestCLITraceFlag:
    def test_study_cli_emits_valid_chrome_trace(self, tmp_path):
        from repro.experiments import study_cli

        config = {
            "system": "double_pendulum",
            "resolution": 5,
            "rank": 2,
            "seed": 7,
            "schemes": [
                {"kind": "m2td", "variant": "select"},
                {"kind": "conventional", "sampler": "Random"},
            ],
        }
        config_path = tmp_path / "study.json"
        config_path.write_text(json.dumps(config))
        trace_path = tmp_path / "trace.json"
        profile_path = tmp_path / "profile.txt"
        metrics_path = tmp_path / "metrics.json"

        # A fresh registry, as a new CLI process has: the --metrics dump
        # then serializes this run's metrics, not every earlier test's.
        with use_metrics():
            started = time.perf_counter()
            code = study_cli.main(
                [
                    str(config_path),
                    "--trace", str(trace_path),
                    "--profile", str(profile_path),
                    "--metrics", str(metrics_path),
                ]
            )
            elapsed = time.perf_counter() - started
        assert code == 0

        doc = json.loads(trace_path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events
        for event in events:
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        # The experiment-level spans must account for >= 90% of the
        # measured wall time of the whole CLI invocation.
        experiment_seconds = (
            sum(e["dur"] for e in events if e["cat"] == "experiment") / 1e6
        )
        assert experiment_seconds >= 0.9 * elapsed
        # Runtime task metrics were bridged into the same trace.
        assert any(e["cat"] == "runtime-task" for e in events)

        profile = profile_path.read_text()
        for category in PIPELINE_CATEGORIES:
            assert category in profile
        metrics = json.loads(metrics_path.read_text())
        assert metrics["svd.calls"]["value"] > 0

    def test_experiments_cli_trace_flag(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        trace_path = tmp_path / "trace.json"
        assert main(["table2", "--quick", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        doc = json.loads(trace_path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert any(e["name"] == "experiment:table2" for e in events)
        assert PIPELINE_CATEGORIES <= {e["cat"] for e in events}


class TestStorageInstrumentation:
    """PR-2 coverage gap: the block store reports spans and byte counts."""

    @pytest.fixture()
    def stored(self, tmp_path, rng):
        store = BlockTensorStore(tmp_path / "store")
        shape = (6, 5, 4)
        coords = np.stack(
            np.unravel_index(np.arange(0, 120, 3), shape), axis=1
        )
        tensor = SparseTensor(shape, coords, rng.standard_normal(len(coords)))
        return store, tensor

    def test_put_get_slice_emit_storage_spans(self, stored):
        store, tensor = stored
        with use_tracer(Tracer()) as tracer:
            store.put("ens", tensor)
            store.get("ens")
            store.slice_query("ens", mode=0, index=2)
        names = {
            s.name for s in tracer.iter_spans() if s.category == "storage"
        }
        assert {"store-put", "store-get", "store-slice-query"} <= names
        put = next(
            s for s in tracer.iter_spans() if s.name == "store-put"
        )
        assert put.attrs["bytes_written"] > 0
        assert put.attrs["n_blocks"] > 0
        sliced = next(
            s for s in tracer.iter_spans() if s.name == "store-slice-query"
        )
        assert sliced.attrs["blocks_read"] > 0

    def test_serialisation_byte_counters(self, stored):
        store, tensor = stored
        with use_metrics() as registry:
            store.put("ens", tensor)
            store.get("ens")
            store.slice_query("ens", mode=0, index=2)
            assert registry.counter("storage.puts").value == 1
            assert registry.counter("storage.gets").value == 1
            assert registry.counter("storage.slice_queries").value == 1
            written = registry.counter("storage.bytes_serialized").value
            read = registry.counter("storage.bytes_deserialized").value
            assert written > 0
            # get() reads every block once; the slice query re-reads a
            # subset — so at least the full serialized size came back.
            assert read >= written
            assert registry.counter("storage.block_reads").value > 0
            assert registry.histogram("storage.block_bytes").count == (
                registry.counter("storage.blocks_written").value
            )


class TestSamplerInstrumentation:
    """PR-2 coverage gap: per-sampler cell counts and sample spans."""

    SAMPLERS = [
        RandomSampler(seed=7),
        GridSampler(),
        SliceSampler(seed=7),
        LatinHypercubeSampler(seed=7),
    ]

    @pytest.mark.parametrize(
        "sampler", SAMPLERS, ids=[s.name for s in SAMPLERS]
    )
    def test_per_sampler_cell_counters(self, sampler):
        with use_metrics() as registry:
            sample = sampler.sample((6, 6, 6), 30)
            assert (
                registry.counter(f"sample.{sampler.name}.cells").value
                == sample.n_cells
            )
            assert registry.counter("sample.cells").value == sample.n_cells
            assert registry.histogram("sample.density").count == 1

    def test_sampler_span_carries_cells(self):
        with use_tracer(Tracer()) as tracer:
            RandomSampler(seed=7).sample((5, 5, 5), 20)
        spans = [s for s in tracer.iter_spans() if s.name == "sample-random"]
        assert spans and spans[0].category == "sample"
        assert spans[0].attrs["cells"] == 20
        assert spans[0].attrs["sampler"] == "Random"


class TestRuntimeBridge:
    def test_task_metrics_become_runtime_task_spans(self):
        graph = TaskGraph()
        graph.add("answer", lambda: 42, affinity="thread")
        runtime = Runtime(workers=2)
        try:
            with use_tracer(Tracer()) as tracer:
                outcome = runtime.run(graph)
        finally:
            runtime.shutdown()
        assert outcome.results["answer"] == 42
        bridged = [
            s for s in tracer.iter_spans() if s.category == "runtime-task"
        ]
        assert [s.name for s in bridged] == ["task:answer"]
        assert bridged[0].attrs["attempts"] == 1
        assert bridged[0].attrs["executor"]

    def test_disabled_tracer_skips_bridge(self):
        graph = TaskGraph()
        graph.add("answer", lambda: 1)
        runtime = Runtime(workers=1)
        try:
            outcome = runtime.run(graph)  # default NullTracer: no crash
        finally:
            runtime.shutdown()
        assert outcome.results["answer"] == 1

    def test_thread_affinity_records_into_live_globals(self):
        tracer, registry = Tracer(), MetricsRegistry()
        runtime = Runtime(workers=2)
        try:
            graph = TaskGraph()
            graph.add("double", _traced_work, 21, affinity="thread")
            with use_tracer(tracer), use_metrics(registry):
                assert runtime.run(graph)["double"] == 42
        finally:
            runtime.shutdown()
        # Same process: no dispatch indirection, spans recorded live.
        assert not [
            s for s in tracer.iter_spans()
            if s.name.startswith("dispatch:")
        ]
        assert registry.as_dict()["child.calls"]["value"] == 1.0
        # The task body's span nests under the live task span.
        (task_span,) = tracer.roots()
        assert task_span.name == "task:double"
        assert [c.name for c in task_span.children] == ["child-work"]


class TestTraceAddsUp:
    """One run, one trace: the root span accounts for the run's wall
    time, and span self-times partition it — no post-hoc copies of
    task time standing beside the task bodies' own spans."""

    def test_serial_table2_quick_has_one_root(self):
        from repro.experiments import quick_config, run_experiment

        runtime = Runtime(workers=1)
        try:
            with use_tracer(Tracer()) as tracer:
                started = time.perf_counter()
                with span("experiment:table2", "experiment"):
                    run_experiment("table2", quick_config(), runtime=runtime)
                elapsed = time.perf_counter() - started
        finally:
            runtime.shutdown()
        (root,) = tracer.roots()
        assert root.name == "experiment:table2"
        assert root.wall_seconds == pytest.approx(elapsed, rel=0.05)
        self_total = sum(s.self_seconds for s in tracer.iter_spans())
        assert self_total == pytest.approx(root.wall_seconds, rel=0.05)
        # Runtime tasks and cache lookups sit inside the root.
        categories = {s.category for s in root.walk()}
        assert {"runtime-task", "cache"} <= categories


class TestOverheadGuard:
    def test_default_is_the_noop_tracer(self):
        assert isinstance(get_tracer(), NullTracer)
        assert get_tracer().enabled is False

    def test_disabled_instrumentation_under_five_percent(self, pendulum_study):
        """Bound the no-op cost: (spans a traced run would record) x
        (per-call no-op cost) must stay below 5% of the untraced wall
        time.  Counting spans instead of diffing two wall-clock runs
        keeps the guard immune to scheduler noise."""
        ranks = [2] * pendulum_study.space.n_modes
        pendulum_study.run_m2td(ranks, variant="select", seed=7)  # warm-up
        started = time.perf_counter()
        pendulum_study.run_m2td(ranks, variant="select", seed=7)
        untraced_seconds = time.perf_counter() - started

        with use_tracer(Tracer()) as tracer:
            pendulum_study.run_m2td(ranks, variant="select", seed=7)
        n_spans = tracer.n_spans
        assert n_spans > 0

        calls = 50_000
        started = time.perf_counter()
        for _ in range(calls):
            with span("bench", "misc", shape=(4, 4), mode=0):
                pass
        per_call = (time.perf_counter() - started) / calls

        overhead = n_spans * per_call
        assert overhead < 0.05 * untraced_seconds, (
            f"{n_spans} spans x {per_call * 1e9:.0f}ns = "
            f"{overhead * 1e3:.3f}ms >= 5% of {untraced_seconds * 1e3:.1f}ms"
        )
