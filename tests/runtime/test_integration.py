"""Runtime wired through the domain layers: studies, configs, D-M2TD.

These are the acceptance tests for the execution runtime: repeated
ground-truth builds over the same (system, resolution) must do zero
integrator work once cached, and parallel execution must change
wall-clock only — never results.
"""

import numpy as np
import pytest

from repro.core import EnsembleStudy
from repro.core.m2td import m2td_decompose
from repro.distributed import distributed_m2td
from repro.runtime import Runtime
from repro.sampling import PFPartition
from repro.simulation import DoublePendulum, SimulationMeter
from repro.tensor import SparseTensor

RESOLUTION = 4


class TestGroundTruthCache:
    def test_disk_cache_second_build_charges_zero_runs(self, tmp_path):
        meter_first = SimulationMeter()
        first = Runtime(workers=1, cache_dir=tmp_path)
        try:
            study = EnsembleStudy.create(
                DoublePendulum(),
                RESOLUTION,
                runtime=first,
                meter=meter_first,
            )
            study.truth  # create simulates nothing; the truth is lazy
        finally:
            first.shutdown()
        assert meter_first.runs > 0

        # A fresh Runtime over the same cache dir simulates a new
        # process: the memory tier is empty, the disk tier is not.
        meter_second = SimulationMeter()
        second = Runtime(workers=1, cache_dir=tmp_path)
        try:
            rebuilt = EnsembleStudy.create(
                DoublePendulum(),
                RESOLUTION,
                runtime=second,
                meter=meter_second,
            )
            rebuilt.truth
        finally:
            second.shutdown()
        assert meter_second.runs == 0
        assert meter_second.cells == 0
        np.testing.assert_array_equal(rebuilt.truth, study.truth)
        assert second.cache.stats.disk_hits == 1

    def test_memory_tier_hit_within_one_runtime(self):
        runtime = Runtime(workers=1)
        meter = SimulationMeter()
        try:
            EnsembleStudy.create(
                DoublePendulum(), RESOLUTION, runtime=runtime, meter=meter
            ).truth
            runs_after_first = meter.runs
            EnsembleStudy.create(
                DoublePendulum(), RESOLUTION, runtime=runtime, meter=meter
            ).truth
        finally:
            runtime.shutdown()
        assert runs_after_first > 0
        assert meter.runs == runs_after_first  # second build charged 0
        assert runtime.cache.stats.hits == 1

    def test_different_resolution_is_a_miss(self):
        runtime = Runtime(workers=1)
        meter = SimulationMeter()
        try:
            EnsembleStudy.create(
                DoublePendulum(), RESOLUTION, runtime=runtime, meter=meter
            ).truth
            first = meter.runs
            EnsembleStudy.create(
                DoublePendulum(),
                RESOLUTION + 1,
                runtime=runtime,
                meter=meter,
            ).truth
        finally:
            runtime.shutdown()
        assert meter.runs > first


class TestStudyConfig:
    CONFIG = {
        "system": "double_pendulum",
        "resolution": RESOLUTION,
        "rank": 2,
        "seed": 7,
        "schemes": [
            {"kind": "m2td", "variant": "select", "pivot": "t"},
            {"kind": "m2td", "variant": "avg", "pivot": "t"},
            {"kind": "conventional", "sampler": "Random"},
        ],
    }

    def test_parallel_config_matches_sequential(self):
        from repro.experiments.study_cli import run_config

        sequential = run_config(dict(self.CONFIG), runtime=None)
        runtime = Runtime(workers=2)
        try:
            parallel = run_config(dict(self.CONFIG), runtime=runtime)
        finally:
            runtime.shutdown()
        assert len(sequential) == len(parallel)
        for seq, par in zip(sequential, parallel):
            assert seq.scheme == par.scheme
            assert seq.accuracy == pytest.approx(par.accuracy, rel=1e-12)
            assert seq.cells == par.cells
            assert seq.runs == par.runs

    def test_cli_main_with_workers_and_cache_dir(self, tmp_path, capsys):
        import json

        from repro.experiments.study_cli import main

        config_path = tmp_path / "study.json"
        config_path.write_text(json.dumps(self.CONFIG))
        output_path = tmp_path / "results.json"
        code = main(
            [
                str(config_path),
                "--workers",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--output",
                str(output_path),
            ]
        )
        assert code == 0
        assert "scheme" in capsys.readouterr().out
        rows = json.loads(output_path.read_text())
        assert len(rows) == len(self.CONFIG["schemes"])
        # The ground truth landed in the on-disk cache.
        assert list((tmp_path / "cache").glob("*.npz"))


class TestDistributedM2TD:
    @staticmethod
    def _inputs():
        shape = (4, 4, 4, 4, 4)
        part = PFPartition(shape, (4,), (0, 1), (2, 3))
        rng = np.random.default_rng(11)
        x1 = SparseTensor.from_dense(
            rng.standard_normal(part.sub_shape(1)) + 2.0, keep_zeros=True
        )
        x2 = SparseTensor.from_dense(
            rng.standard_normal(part.sub_shape(2)) + 2.0, keep_zeros=True
        )
        return part, x1, x2

    def test_runtime_execution_matches_single_node(self):
        part, x1, x2 = self._inputs()
        ranks = [2] * 5
        local = m2td_decompose(x1, x2, part, ranks, variant="select")
        runtime = Runtime(workers=3)
        try:
            dist = distributed_m2td(
                x1, x2, part, ranks, variant="select", runtime=runtime
            )
        finally:
            runtime.shutdown()
        np.testing.assert_allclose(
            local.tucker.core, dist.result.tucker.core
        )
        for a, b in zip(local.tucker.factors, dist.result.tucker.factors):
            np.testing.assert_allclose(a, b)
        # The three phases ran as named graph tasks with metrics.
        names = {m.name for m in runtime.report.tasks}
        assert {"phase1", "phase2", "phase3"} <= names
