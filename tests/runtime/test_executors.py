"""Executor venues: one contract, identical results everywhere.

The determinism test runs one full ``EnsembleStudy.run_m2td`` through
each executor kind — inline and thread pool — and asserts the
decomposition agrees to machine precision, which is the property that
lets callers pick venues on affinity alone.  Cross-process execution
belongs to the supervised worker pool and is tested with it
(``tests/distributed/test_workers.py``).
"""

import numpy as np
import pytest

from repro.core import EnsembleStudy
from repro.exceptions import TaskGraphError
from repro.runtime import InlineExecutor, Runtime, TaskGraph, ThreadExecutor
from repro.simulation import DoublePendulum


def _double(x):
    return x * 2


def _study_m2td(resolution: int = 5):
    """Build a small study and run M2TD-SELECT."""
    study = EnsembleStudy.create(DoublePendulum(), resolution=resolution)
    result = study.run_m2td([2] * 5, variant="select", seed=3)
    return result.accuracy, result.m2td.tucker.core


class TestContract:
    @pytest.mark.parametrize(
        "kind, make",
        [("inline", InlineExecutor), ("thread", lambda: ThreadExecutor(2))],
        ids=["inline", "thread"],
    )
    def test_submit_returns_future(self, kind, make):
        executor = make()
        try:
            assert executor.submit(_double, 21).result() == 42
            assert executor.kind == kind
        finally:
            executor.shutdown()

    def test_inline_runs_on_calling_thread(self):
        import threading

        seen = []
        InlineExecutor().submit(
            lambda: seen.append(threading.current_thread())
        ).result()
        assert seen == [threading.main_thread()]

    def test_exceptions_travel_through_futures(self):
        def boom():
            raise ValueError("inside")

        for executor in (InlineExecutor(), ThreadExecutor(1)):
            with pytest.raises(ValueError, match="inside"):
                executor.submit(boom).result()
            executor.shutdown()

    def test_pool_size_validated(self):
        with pytest.raises(TaskGraphError):
            ThreadExecutor(0)
        with pytest.raises(TaskGraphError):
            ThreadExecutor(-1)

    def test_shutdown_then_resubmit_rebuilds_pool(self):
        executor = ThreadExecutor(1)
        assert executor.submit(_double, 1).result() == 2
        executor.shutdown()
        assert executor.submit(_double, 2).result() == 4
        executor.shutdown()


class TestDeterminismAcrossVenues:
    def test_full_m2td_study_identical(self):
        outcomes = {}
        for kind in ("inline", "thread"):
            runtime = Runtime(workers=2)
            try:
                graph = TaskGraph()
                graph.add("study-m2td", _study_m2td, affinity=kind)
                outcomes[kind] = runtime.run(graph)["study-m2td"]
            finally:
                runtime.shutdown()
        accuracy0, core0 = outcomes["inline"]
        accuracy, core = outcomes["thread"]
        assert accuracy == pytest.approx(accuracy0, rel=1e-12)
        np.testing.assert_allclose(core, core0, rtol=1e-12, atol=1e-12)

    def test_graph_results_identical_across_worker_counts(self):
        from repro.runtime import output

        def chained():
            g = TaskGraph()
            g.add("a", np.arange, 24.0)
            g.add("b", lambda x: (x * 2).sum(), output("a"))
            g.add("c", lambda x: (x + 1).sum(), output("a"))
            g.add("d", lambda u, v: u + v, output("b"), output("c"))
            return g

        sequential = Runtime(workers=1)
        parallel = Runtime(workers=4)
        try:
            r1 = sequential.run(chained())["d"]
            r4 = parallel.run(chained())["d"]
            assert r1 == r4
        finally:
            sequential.shutdown()
            parallel.shutdown()
