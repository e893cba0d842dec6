"""Default serving path: the no-densification guarantee end to end.

A registered study's ensemble is stored sparse, so bundle computation
goes through ``hosvd``'s Gram route and the stored ensemble is never
materialized densely — ``tensor.dense_unfolds`` stays at exactly zero
from registration through point, slice and top-k answering.
"""

from __future__ import annotations

import numpy as np

from repro.observability import Tracer, use_tracer
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.serving import StudyCatalog
from repro.tensor import hosvd

from .conftest import make_sparse


class TestGramServingPath:
    def test_dense_unfolds_pinned_zero(self, tmp_path):
        """Acceptance guard: registration + bundle compute + queries,
        all under one registry, with zero dense unfoldings."""
        registry = MetricsRegistry()
        with use_metrics(registry):
            cat = StudyCatalog(tmp_path / "serving")
            cat.register(
                "gamma", make_sparse((6, 5, 4), seed=3), ranks=[3, 3, 3]
            )
            engine = cat.engine("gamma")
            engine.point((0, 0, 0))
            engine.point_batch(np.array([[1, 1, 1], [5, 4, 3]]))
            engine.slice(0, 2)
            top = engine.topk_anomalies(cat.store_for("gamma"), "ensemble", 3)
            assert len(top) == 3
            assert registry.counter("tensor.dense_unfolds").value == 0

    def test_bundle_span_records_gram_route(self, tmp_path):
        cat = StudyCatalog(tmp_path / "serving")
        cat.register("gamma", make_sparse((6, 5, 4), seed=3), ranks=[3, 3, 3])
        with use_tracer(Tracer()) as tracer:
            cat.engine("gamma")
        routes = [s.attrs["route"] for s in tracer.iter_spans()
                  if s.name == "hosvd"]
        assert routes == ["gram"]

    def test_answers_match_dense_hosvd(self, tmp_path):
        """Served answers agree with the dense-route HOSVD of the same
        data to numerical precision (only the factor route differs)."""
        tensor = make_sparse((6, 5, 4), seed=4)
        reference = hosvd(tensor.to_dense(), (3, 3, 3)).reconstruct()
        cat = StudyCatalog(tmp_path / "serving")
        cat.register("g", tensor, ranks=[3, 3, 3])
        engine = cat.engine("g")
        coords = np.array([[0, 0, 0], [5, 4, 3], [2, 2, 2], [3, 1, 0]])
        expected = reference[tuple(coords.T)]
        assert np.allclose(engine.point_batch(coords), expected, atol=1e-8)
