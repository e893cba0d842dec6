"""The workload registry and a smoke build/run of each registered
workload at quick size.

The smoke test is the contract the harness relies on: every build
returns a PreparedWorkload whose run() completes and whose close() is
idempotent enough to call once.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import BenchmarkRunner
from repro.bench.workloads import (
    BENCH_RANK,
    BENCH_RESOLUTION,
    BENCH_SEED,
    FULL,
    QUICK,
    WORKLOADS,
    PreparedWorkload,
    clear_input_cache,
    get_workloads,
    size_for,
    suites,
    workload,
)
from repro.exceptions import BenchError


@pytest.fixture(scope="module", autouse=True)
def _drop_cached_studies():
    yield
    clear_input_cache()


class TestRegistry:
    def test_at_least_eight_workloads(self):
        assert len(WORKLOADS) >= 8

    def test_expected_coverage(self):
        names = set(WORKLOADS)
        for expected in (
            "kernel.hosvd", "kernel.st_hosvd", "kernel.hooi",
            "dm2td.workers1", "dm2td.workers2", "dm2td.workers4",
            "dm2td.external.workers2", "dm2td.external.workers4",
            "store.put", "store.get", "store.slice_query",
            "serving.point_c1", "serving.point_c100",
            "serving.point_c100_unbatched", "serving.point_c10k",
            "serving.slice_c100", "serving.topk_c20",
        ):
            assert expected in names, expected

    def test_suites_cover_all_layers(self):
        assert set(suites()) == {
            "kernels", "distributed", "storage", "serving",
        }

    def test_get_workloads_filters_and_sorts(self):
        kernels = get_workloads(["kernels"])
        assert [w.name for w in kernels] == sorted(w.name for w in kernels)
        assert all(w.suite == "kernels" for w in kernels)
        assert len(get_workloads()) == len(WORKLOADS)

    def test_unknown_suite_raises(self):
        with pytest.raises(BenchError, match="unknown suite"):
            get_workloads(["nope"])

    def test_double_registration_raises(self):
        with pytest.raises(BenchError, match="twice"):
            workload("kernel.hosvd", "kernels", "dup")(lambda size: None)

    def test_descriptions_nonempty(self):
        assert all(w.description for w in WORKLOADS.values())


class TestSizeSpecs:
    def test_size_for(self):
        assert size_for("full") is FULL
        assert size_for("quick") is QUICK
        with pytest.raises(BenchError, match="unknown size mode"):
            size_for("medium")

    def test_constants_flow_into_full_spec(self):
        assert FULL.resolution == BENCH_RESOLUTION
        assert FULL.rank == BENCH_RANK
        assert FULL.seed == QUICK.seed == BENCH_SEED

    def test_quick_is_smaller(self):
        assert QUICK.resolution < FULL.resolution
        assert QUICK.rank <= FULL.rank
        assert QUICK.iterations <= FULL.iterations


class TestQuickSmoke:
    """Every registered workload must build and run at quick size."""

    @pytest.mark.parametrize(
        "name", sorted(WORKLOADS), ids=sorted(WORKLOADS)
    )
    def test_build_and_run(self, name):
        prepared = WORKLOADS[name].build(QUICK)
        assert isinstance(prepared, PreparedWorkload)
        try:
            result = prepared.run()
            # a second run must also work (the harness iterates)
            prepared.run()
        finally:
            prepared.close()
        assert result is not None


class TestVenuePinnedByName:
    def test_exported_process_transport_keeps_workers1_in_process(
        self, monkeypatch
    ):
        """``dm2td.workers*`` time the in-process venue their names
        claim even with ``M2TD_TRANSPORT=process`` exported; only the
        ``dm2td.external.*`` rows dispatch to worker processes."""
        monkeypatch.setenv("M2TD_TRANSPORT", "process")
        runner = BenchmarkRunner(
            QUICK, iterations=1, warmup=0, measure_memory=False
        )
        result = runner.run_workload(WORKLOADS["dm2td.workers1"])
        assert result.metrics
        assert not [m for m in result.metrics if m.startswith("worker.")]
