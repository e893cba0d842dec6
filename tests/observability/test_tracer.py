"""Tracer semantics: nesting, timing, threads, and the no-op default."""

import threading
import time

import pytest

from repro.observability import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    span,
    use_tracer,
)
from repro.observability.tracer import _NULL_SPAN


class TestNoOpDefault:
    def test_default_tracer_is_disabled(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert tracer.enabled is False

    def test_module_span_returns_shared_null_span(self):
        first = span("anything", "misc", shape=(3, 3))
        second = span("else", "decompose")
        assert first is _NULL_SPAN
        assert second is _NULL_SPAN

    def test_null_span_supports_protocol(self):
        with span("x", "misc") as sp:
            assert sp.set(nnz=3) is sp

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("a"):
            pass
        assert NULL_TRACER.roots() == []
        assert NULL_TRACER.n_spans == 0
        assert NULL_TRACER.total_wall_seconds() == 0.0


class TestRecording:
    def test_span_records_wall_and_cpu(self):
        tracer = Tracer()
        with tracer.span("work", "misc"):
            time.sleep(0.01)
        (root,) = tracer.roots()
        assert root.name == "work"
        assert root.wall_seconds >= 0.009
        assert root.cpu_seconds >= 0.0

    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("outer", "decompose"):
                with span("inner-a", "tensor-op"):
                    pass
                with span("inner-b", "tensor-op"):
                    with span("leaf", "tensor-op"):
                        pass
        roots = tracer.roots()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner-a", "inner-b"]
        assert [c.name for c in roots[0].children[1].children] == ["leaf"]
        assert tracer.n_spans == 4

    def test_attrs_and_mid_span_set(self):
        tracer = Tracer()
        with tracer.span("svd", "decompose", shape=(4, 5)) as sp:
            sp.set(rank=2)
        (root,) = tracer.roots()
        assert root.attrs == {"shape": (4, 5), "rank": 2}

    def test_self_seconds_excludes_children(self):
        tracer = Tracer()
        with tracer.span("outer", "misc") as outer:
            with tracer.span("inner", "misc"):
                time.sleep(0.01)
        assert outer.self_seconds <= outer.wall_seconds
        assert outer.self_seconds == pytest.approx(
            outer.wall_seconds
            - sum(c.wall_seconds for c in outer.children)
        )
        # Parallel children cover the union of their intervals, not
        # the sum: [1, 4] and [2, 5] under [0, 10] leave 6 s uncovered.
        parent = tracer.span("parent", "misc")
        parent.started, parent.wall_seconds = 0.0, 10.0
        for started in (1.0, 2.0):
            child = tracer.span("child", "misc")
            child.started, child.wall_seconds = started, 3.0
            parent.children.append(child)
        assert parent.self_seconds == pytest.approx(6.0)

    def test_error_captured_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom", "misc"):
                raise ValueError("no")
        (root,) = tracer.roots()
        assert root.error == "ValueError"

    def test_walk_is_depth_first(self):
        tracer = Tracer()
        with tracer.span("a", "misc"):
            with tracer.span("b", "misc"):
                pass
            with tracer.span("c", "misc"):
                pass
        (root,) = tracer.roots()
        assert [s.name for s in root.walk()] == ["a", "b", "c"]

    def test_clear_empties_the_forest(self):
        tracer = Tracer()
        with tracer.span("a", "misc"):
            pass
        tracer.clear()
        assert tracer.n_spans == 0


class TestThreads:
    def test_worker_thread_spans_become_their_own_roots(self):
        tracer = Tracer()

        def work():
            with tracer.span("on-worker", "mapreduce"):
                pass

        with tracer.span("on-main", "misc"):
            thread = threading.Thread(target=work, name="worker-0")
            thread.start()
            thread.join()
        names = {r.name for r in tracer.roots()}
        assert names == {"on-main", "on-worker"}
        worker_root = next(
            r for r in tracer.roots() if r.name == "on-worker"
        )
        assert worker_root.thread == "worker-0"
        assert worker_root.children == []

    def test_adopted_parent_nests_worker_spans(self):
        tracer = Tracer()
        after_adopt = []

        def work(parent):
            with tracer.adopt(parent):
                with tracer.span("on-worker", "mapreduce"):
                    pass
            after_adopt.append(tracer.current())

        with tracer.span("on-main", "misc") as main:
            assert tracer.current() is main
            thread = threading.Thread(target=work, args=(main,))
            thread.start()
            thread.join()
        assert after_adopt == [None]
        (root,) = tracer.roots()
        assert root is main
        assert [c.name for c in root.children] == ["on-worker"]

    def test_concurrent_recording_is_thread_safe(self):
        tracer = Tracer()

        def work(i):
            for _ in range(50):
                with tracer.span(f"t{i}", "misc"):
                    pass

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracer.n_spans == 200


class TestInstallation:
    def test_set_tracer_none_restores_null(self):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_previous(self):
        before = get_tracer()
        with use_tracer(Tracer()) as tracer:
            assert get_tracer() is tracer
            with span("live", "misc"):
                pass
        assert get_tracer() is before
        assert tracer.n_spans == 1
