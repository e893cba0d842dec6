"""ServingServer: correctness, batching, shedding, multi-tenancy.

The acceptance test for the whole subsystem lives here:
``test_two_studies_zero_reconstructions`` serves point/slice/top-k for
two concurrently registered studies and asserts the
``tucker.reconstructs`` counter never moved.
"""

import asyncio

import numpy as np
import pytest

from repro.exceptions import (
    QueryError,
    ServingError,
    ServingOverloadError,
    StudyNotFoundError,
)
from repro.observability import Tracer, use_tracer
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.serving import ServingClient, ServingServer
from repro.serving import engine as engine_module
from repro.serving import server as server_module
from repro.serving.server import _Request


def test_two_studies_zero_reconstructions(catalog):
    """Acceptance: queries for >= 2 concurrent studies, and the dense
    reconstruction counter stays at exactly zero."""
    registry = MetricsRegistry()

    async def serve():
        async with ServingServer(catalog) as server:
            points = await asyncio.gather(
                server.point("alpha", (1, 2, 3)),
                server.point("beta", (0, 1, 2, 0)),
                server.point("alpha", (5, 4, 0)),
                server.point("beta", (3, 3, 2, 2)),
            )
            slices = await asyncio.gather(
                server.slice("alpha", 0, 2),
                server.slice("beta", 1, 3),
            )
            topks = await asyncio.gather(
                server.topk("alpha", 3),
                server.topk("beta", 2),
            )
        return points, slices, topks

    with use_metrics(registry):
        points, slices, topks = asyncio.run(serve())
        assert registry.counter("tucker.reconstructs").value == 0

    # correctness checked against the dense tensor *after* the guard
    full_alpha = catalog.engine("alpha").tucker.reconstruct()
    full_beta = catalog.engine("beta").tucker.reconstruct()
    assert points[0] == pytest.approx(full_alpha[1, 2, 3], abs=1e-10)
    assert points[1] == pytest.approx(full_beta[0, 1, 2, 0], abs=1e-10)
    assert points[2] == pytest.approx(full_alpha[5, 4, 0], abs=1e-10)
    assert points[3] == pytest.approx(full_beta[3, 3, 2, 2], abs=1e-10)
    assert np.allclose(slices[0], full_alpha[2], atol=1e-10)
    assert np.allclose(slices[1], full_beta[:, 3], atol=1e-10)
    assert len(topks[0]) == 3 and len(topks[1]) == 2


class TestBatching:
    def test_concurrent_points_coalesce(self, catalog):
        registry = MetricsRegistry()

        async def serve():
            async with ServingServer(catalog, max_batch=64) as server:
                client = ServingClient(server, study="alpha")
                rng = np.random.default_rng(0)
                coords = [
                    tuple(int(rng.integers(s)) for s in (6, 5, 4))
                    for _ in range(200)
                ]
                values = await asyncio.gather(
                    *(client.point(c) for c in coords)
                )
                return server.stats, coords, values

        with use_metrics(registry):
            stats, coords, values = asyncio.run(serve())
        # far fewer numpy calls than requests
        assert stats.served == 200
        assert stats.batches < stats.served / 2
        assert registry.histogram("serving.batch_size").max > 1
        full = catalog.engine("alpha").tucker.reconstruct()
        for coord, value in zip(coords, values):
            assert value == pytest.approx(full[coord], abs=1e-10)

    def test_unbatched_control_serves_one_by_one(self, catalog):
        async def serve():
            async with ServingServer(catalog, batching=False) as server:
                await asyncio.gather(
                    *(server.point("alpha", (i % 6, 0, 0)) for i in range(40))
                )
                return server.stats

        stats = asyncio.run(serve())
        assert stats.served == 40
        assert stats.batches == 40

    def test_max_batch_respected(self, catalog):
        registry = MetricsRegistry()

        async def serve():
            async with ServingServer(catalog, max_batch=8) as server:
                await asyncio.gather(
                    *(server.point("alpha", (i % 6, 0, 0)) for i in range(100))
                )

        with use_metrics(registry):
            asyncio.run(serve())
        assert registry.histogram("serving.batch_size").max <= 8

    def test_mixed_drain_groups_slices_by_mode(self, catalog):
        """One drain: slices on two modes, a point, a top-k and an
        out-of-range slice.  Each mode is one ``slice_batch``; the bad
        slice fails alone."""
        registry = MetricsRegistry()
        slices = [(0, 2), (2, 1), (0, 5), (2, 3), (0, 2)]

        async def serve():
            async with ServingServer(catalog) as server:
                results = await asyncio.gather(
                    *(server.slice("alpha", m, i) for m, i in slices[:2]),
                    server.point("alpha", (1, 2, 3)),
                    server.slice("alpha", 1, 9),
                    server.topk("alpha", 2),
                    *(server.slice("alpha", m, i) for m, i in slices[2:]),
                    return_exceptions=True,
                )
                return server.stats, results

        with use_metrics(registry), use_tracer(Tracer()) as tracer:
            stats, results = asyncio.run(serve())
            assert registry.counter("tucker.reconstructs").value == 0
        planes = results[:2] + results[5:]
        point, bad, topk = results[2:5]
        assert isinstance(bad, QueryError)
        assert registry.counter("serving.errors.QueryError").value == 1
        assert stats.errors == 1
        assert stats.batches == 1
        assert stats.slices == len(slices)
        full = catalog.engine("alpha").tucker.reconstruct()
        for (mode, index), plane in zip(slices, planes):
            assert np.allclose(
                plane, np.take(full, index, axis=mode), atol=1e-10
            )
        assert point == pytest.approx(full[1, 2, 3], abs=1e-10)
        assert len(topk) == 2
        spans = list(tracer.iter_spans())
        groups = sorted(
            (s.attrs["mode"], s.attrs["batch"])
            for s in spans if s.name == "serving-slice"
        )
        assert groups == [(0, 3), (2, 2)]
        (drain,) = [s for s in spans if s.name == "serving-batch"]
        assert drain.attrs["slices"] == len(slices) + 1
        assert drain.attrs["points"] == 1

    def test_repeated_slices_share_one_read_only_plane(self, catalog):
        """One drain of many slice requests over a few hyperplanes on
        two modes computes each distinct hyperplane once; every request
        gets a read-only view of its plane."""
        registry = MetricsRegistry()
        slices = [(0, i) for i in (4, 1, 4, 4, 0, 1, 4, 0)]
        slices += [(2, i) for i in (3, 3, 1, 3, 1, 3)]

        async def serve():
            async with ServingServer(catalog) as server:
                results = await asyncio.gather(
                    *(server.slice("alpha", m, i) for m, i in slices)
                )
                return server.stats, results

        with use_metrics(registry), use_tracer(Tracer()) as tracer:
            stats, results = asyncio.run(serve())
        assert stats.batches == 1
        assert stats.slices == len(slices)
        assert registry.counter("serving.slices_evaluated").value == len(
            slices
        )
        groups = sorted(
            (s.attrs["mode"], s.attrs["batch"], s.attrs["planes"])
            for s in tracer.iter_spans() if s.name == "serving-slice"
        )
        assert groups == [(0, 8, 3), (2, 6, 2)]
        engine = catalog.engine("alpha")
        for (mode, index), plane in zip(slices, results):
            assert np.array_equal(plane, engine.slice(mode, index))
            with pytest.raises(ValueError):
                plane[(0,) * plane.ndim] = 1.0

    def test_point_many_matches_individual(self, catalog):
        async def serve():
            async with ServingServer(catalog) as server:
                indices = [(0, 0, 0), (5, 4, 3), (2, 2, 2)]
                many = await server.point_many("alpha", indices)
                single = [
                    await server.point("alpha", index) for index in indices
                ]
                return many, single

        many, single = asyncio.run(serve())
        assert many == pytest.approx(single, abs=1e-12)


class TestOverload:
    def test_flood_is_shed_with_typed_error(self, catalog):
        async def serve():
            async with ServingServer(catalog, max_queue=4) as server:
                results = await asyncio.gather(
                    *(server.point("alpha", (0, 0, 0)) for _ in range(50)),
                    return_exceptions=True,
                )
                return server.stats, results

        stats, results = asyncio.run(serve())
        shed = [r for r in results if isinstance(r, ServingOverloadError)]
        served = [r for r in results if isinstance(r, float)]
        assert shed and served
        assert len(shed) == stats.shed
        assert len(served) == stats.served
        assert shed[0].study == "alpha"
        assert shed[0].limit == 4


class TestErrors:
    def test_unknown_study(self, catalog):
        async def serve():
            async with ServingServer(catalog) as server:
                await server.point("nope", (0, 0, 0))

        with pytest.raises(StudyNotFoundError):
            asyncio.run(serve())

    def test_bad_index_rejected_at_submit(self, catalog):
        async def serve():
            async with ServingServer(catalog) as server:
                with pytest.raises(QueryError):
                    await server.point("alpha", (9, 9, 9))
                with pytest.raises(QueryError):
                    await server.slice("alpha", 7, 0)
                # the worker survives bad requests
                return await server.point("alpha", (0, 0, 0))

        assert isinstance(asyncio.run(serve()), float)

    def test_failed_request_is_not_served_for_its_study(self, catalog):
        """The per-study served count agrees with ``stats.served``: an
        out-of-range slice fails in the drain and is counted as an
        error, not as served."""

        async def serve():
            async with ServingServer(catalog) as server:
                results = await asyncio.gather(
                    server.point("alpha", (1, 2, 3)),
                    server.slice("alpha", 1, 9),
                    return_exceptions=True,
                )
                return results, server.summary()

        (point, bad), summary = asyncio.run(serve())
        assert isinstance(point, float)
        assert isinstance(bad, QueryError)
        assert summary["stats"]["errors"] == 1
        assert summary["stats"]["served"] == 1
        assert summary["studies"]["alpha"]["served"] == 1

    @pytest.mark.parametrize(
        "bad", [1.5, 0.9, float("nan"), float("inf"), True]
    )
    def test_non_integral_index_rejected_at_submit(self, catalog, bad):
        async def serve():
            async with ServingServer(catalog) as server:
                with pytest.raises(QueryError, match="whole numbers"):
                    await server.point("alpha", (1, bad, 0))
                with pytest.raises(QueryError, match="whole numbers"):
                    await server.slice("alpha", 0, bad)
                with pytest.raises(QueryError, match="whole numbers"):
                    await server.slice("alpha", bad, 1)
                return server.stats

        assert asyncio.run(serve()).served == 0

    @pytest.mark.parametrize(
        "index", [5, (1, (2, 3), 0), (0, 0), (0, 0, 0, 0)]
    )
    def test_malformed_point_is_a_query_error(self, catalog, index):
        """A scalar, a nested coordinate or the wrong arity is a typed
        error, never a numpy exception."""
        async def serve():
            async with ServingServer(catalog) as server:
                with pytest.raises(QueryError):
                    await server.point("alpha", index)
                with pytest.raises(QueryError):
                    await server.point_many("alpha", [(0, 0, 0), index])
                return server.stats

        assert asyncio.run(serve()).served == 0
        with pytest.raises(QueryError):
            catalog.engine("alpha").point(index)

    @pytest.mark.parametrize("k", [2.7, "x", True, float("nan"), (2,)])
    def test_malformed_topk_k_is_a_query_error(self, catalog, k):
        """``k`` is never truncated (2.7 is not 2) nor read from a
        string or a bool."""
        async def serve():
            async with ServingServer(catalog) as server:
                with pytest.raises(QueryError):
                    await server.topk("alpha", k)
                with pytest.raises(QueryError):
                    await server.topk("alpha", 2, mode=0, index=k)
                with pytest.raises(QueryError):
                    await server.topk("alpha", 2, mode=k, index=0)
                return await server.topk("alpha", 2.0)

        assert len(asyncio.run(serve())) == 2

    @pytest.mark.parametrize("half", [{"mode": 1}, {"index": 0}])
    def test_half_specified_topk_restriction_is_a_query_error(
        self, catalog, half
    ):
        """``mode`` without ``index`` (or the reverse) is refused, never
        answered with the whole tensor's top-k."""
        async def serve():
            async with ServingServer(catalog) as server:
                client = ServingClient(server, study="alpha")
                with pytest.raises(QueryError, match="both mode and index"):
                    await client.topk(3, **half)
                assert len(await client.topk(3)) == 3
                return server.stats

        assert asyncio.run(serve()).served == 1
        engine = catalog.engine("alpha")
        with pytest.raises(QueryError, match="both mode and index"):
            engine.topk_anomalies(None, "ensemble", 3, **half)
        with pytest.raises(QueryError, match="both mode and index"):
            engine.ranking.take(3, **half)

    def test_not_started(self, catalog):
        server = ServingServer(catalog)

        async def query():
            await server.point("alpha", (0, 0, 0))

        with pytest.raises(ServingError, match="not started"):
            asyncio.run(query())

    def test_bad_configuration(self, catalog):
        with pytest.raises(ServingError, match="max_batch"):
            ServingServer(catalog, max_batch=0)
        with pytest.raises(ServingError, match="max_queue"):
            ServingServer(catalog, max_queue=0)

    def test_client_needs_a_study(self, catalog):
        async def serve():
            async with ServingServer(catalog) as server:
                client = ServingClient(server)
                with pytest.raises(ServingError, match="no study"):
                    await client.point((0, 0, 0))

        asyncio.run(serve())


class TestRequestPath:
    """The one-hop request path: a study's deque, validation at submit,
    and a drain that contracts the submitted tuples as they are."""

    def test_client_call_is_a_task_ready_coroutine(self, catalog):
        async def serve():
            async with ServingServer(catalog) as server:
                client = ServingClient(server, study="alpha")
                task = asyncio.create_task(client.point((1, 2, 3)))
                return await task

        value = asyncio.run(serve())
        full = catalog.engine("alpha").tucker.reconstruct()
        assert value == pytest.approx(full[1, 2, 3], abs=1e-10)

    def test_stop_fails_requests_it_never_drained(self, catalog):
        """Requests queued before ``stop()`` are served; one queued
        behind the shutdown marker is failed, not left hanging."""

        async def serve():
            server = await ServingServer(catalog).start()
            first = asyncio.create_task(server.point("alpha", (0, 0, 0)))
            await asyncio.sleep(0)  # admitted; its drain has not run
            worker = server._workers["alpha"]
            stopping = asyncio.create_task(server.stop())
            await asyncio.sleep(0)  # stop() queued its marker
            loop = asyncio.get_running_loop()
            late = loop.create_future()
            worker.put(_Request("point", ((1, 1, 1),), late, loop.time()))
            await stopping
            return await first, late, server.stats

        value, late, stats = asyncio.run(serve())
        assert isinstance(value, float)
        with pytest.raises(ServingError, match="server stopped"):
            late.result()
        assert stats.served == 1

    def test_queue_depth_reads_zero_after_a_session(self, catalog):
        async def serve():
            async with ServingServer(catalog, max_batch=4) as server:
                await asyncio.gather(
                    *(server.point("alpha", (i % 6, 0, 0)) for i in range(30)),
                    *(server.slice("alpha", 1, i % 5) for i in range(5)),
                )
                return server.summary()

        summary = asyncio.run(serve())
        assert summary["studies"]["alpha"]["queue_depth"] == 0
        assert summary["studies"]["alpha"]["served"] == 35

    def test_drain_does_not_revalidate_submitted_points(
        self, catalog, monkeypatch
    ):
        engine = catalog.engine("alpha")  # load it (and its bundle) now
        calls = []

        def counting(shape, coords):
            calls.append(shape)
            return engine_module._check_coords.__wrapped__(shape, coords)

        counting.__wrapped__ = engine_module._check_coords
        monkeypatch.setattr(engine_module, "_check_coords", counting)
        monkeypatch.setattr(server_module, "_check_coords", counting)

        async def serve():
            async with ServingServer(catalog) as server:
                return await asyncio.gather(
                    *(server.point("alpha", (i % 6, i % 5, i % 4))
                      for i in range(40))
                )

        values = asyncio.run(serve())
        assert len(values) == 40 and calls == []
        with pytest.raises(QueryError, match="out of bounds"):
            engine.point_batch(np.array([[0, 0, 0], [6, 0, 0]]))
        assert len(calls) == 1


def test_summary_shape(catalog):
    async def serve():
        async with ServingServer(catalog) as server:
            await server.point("alpha", (0, 0, 0))
            await server.point("beta", (0, 0, 0, 0))
            return server.summary()

    summary = asyncio.run(serve())
    assert summary["stats"]["served"] == 2
    assert set(summary["studies"]) == {"alpha", "beta"}
    assert summary["hot_factors"]["hit_rate"] >= 0.0
    assert set(summary["latency_seconds"]) == {"p50", "p90", "p99"}
