"""Serving-layer telemetry: labelled error counters, shed accounting
in the queue-wait histogram, typed shed errors, and the once-per-drain
settle of served answers.
"""

import asyncio

import pytest

from repro.exceptions import QueryError, ServingOverloadError
from repro.observability import MetricsRegistry, use_metrics
from repro.serving import ServingServer


def run(coro):
    return asyncio.run(coro)


class TestLabelledErrorCounters:
    def test_error_kind_breaks_out_by_exception_type(self, catalog):
        async def go():
            # A bad slice mode passes admission and fails inside the
            # drain — the path the labelled counters instrument.
            async with ServingServer(catalog) as server:
                with pytest.raises(QueryError):
                    await server.slice("alpha", 9, 0)

        with use_metrics(MetricsRegistry()) as registry:
            run(go())
            state = registry.as_dict()
        assert state["serving.errors"]["value"] == 1.0
        assert state["serving.errors.QueryError"]["value"] == 1.0

    def test_served_requests_leave_error_counters_untouched(self, catalog):
        async def go():
            async with ServingServer(catalog) as server:
                await server.point("alpha", [0, 0, 0])

        with use_metrics(MetricsRegistry()) as registry:
            run(go())
            names = registry.names()
        assert not [n for n in names if n.startswith("serving.errors")]


class TestShedAccounting:
    def shed_once(self, catalog, registry):
        """Force one shed: a zero-capacity queue rejects the second
        concurrent request."""

        async def go():
            async with ServingServer(catalog, max_queue=1) as server:
                tasks = [
                    asyncio.create_task(server.point("alpha", [0, 0, 0]))
                    for _ in range(8)
                ]
                return await asyncio.gather(*tasks, return_exceptions=True)

        with use_metrics(registry):
            results = run(go())
        return [r for r in results if isinstance(r, ServingOverloadError)]

    def test_shed_lands_in_queue_wait_histogram(self, catalog):
        registry = MetricsRegistry()
        shed = self.shed_once(catalog, registry)
        if not shed:
            pytest.skip("scheduler drained every request; nothing shed")
        state = registry.as_dict()
        assert state["serving.shed"]["value"] == len(shed)
        # Every admission decision — served or shed — shows up in the
        # queue-wait histogram; shed requests waited exactly 0 s.
        waits = state["serving.queue_wait_seconds"]
        assert waits["count"] >= len(shed)
        assert waits["min"] == 0.0
        # The typed error says which study and query kind was shed.
        assert shed[0].study == "alpha"
        assert shed[0].kind == "point"
        assert shed[0].limit == 1

    def test_overload_error_is_labelled(self, catalog):
        registry = MetricsRegistry()
        shed = self.shed_once(catalog, registry)
        if not shed:
            pytest.skip("scheduler drained every request; nothing shed")
        # Shedding happens at admission, before _resolve: it must NOT
        # count as a serving error (the client got a clean overload
        # signal, not a failed computation).
        assert "serving.errors" not in registry.names()


class TestSettleAccounting:
    """A drain settles its answers in one go; every request must still
    be counted exactly once."""

    def test_mixed_session_accounts_every_request(self, catalog):
        async def go():
            async with ServingServer(catalog) as server:
                results = await asyncio.gather(
                    *(
                        server.point("alpha", (i % 6, i % 5, i % 4))
                        for i in range(20)
                    ),
                    *(server.slice("alpha", 0, i % 6) for i in range(4)),
                    *(server.slice("alpha", 2, i % 4) for i in range(3)),
                    server.slice("alpha", 1, 9),  # fails in the drain
                    server.topk("alpha", 2),
                    return_exceptions=True,
                )
                # and a few one-request drains
                for i in range(3):
                    results.append(await server.point("alpha", (i, 0, 0)))
                return server.stats, results

        with use_metrics(MetricsRegistry()) as registry:
            stats, results = run(go())
            state = registry.as_dict()
        errors = [r for r in results if isinstance(r, BaseException)]
        assert len(errors) == 1 and isinstance(errors[0], QueryError)
        assert stats.shed == 0 and stats.errors == 1
        assert stats.served == len(results) - 1
        assert state["serving.served"]["value"] == stats.served
        assert state["serving.errors"]["value"] == stats.errors
        assert (
            state["serving.latency_seconds"]["count"]
            == stats.served + stats.errors
        )
        assert state["serving.queue_wait_seconds"]["count"] == len(results)
        assert state["serving.batch_size"]["sum"] == len(results)
