"""Serving-layer chaos: a corrupt block fails only its own study, and
query faults stay typed.

The recovery property under test: a corrupted shard block is *never
served*.  The block's checksum fails the study's bundle with a typed
:class:`~repro.exceptions.BlockCorruptionError` on every query, other
studies keep serving, and re-registering the study's data heals it
bit for bit.
"""

import asyncio

import numpy as np
import pytest

from repro.exceptions import BlockCorruptionError, FaultInjectionError
from repro.faults import FaultInjector, FaultSpec, plan_of, use_injector
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.serving import ServingServer, StudyCatalog
from repro.tensor import SparseTensor


def _make_sparse(shape, seed=0):
    rng = np.random.default_rng(seed)
    n = int(0.5 * np.prod(shape))
    coords = np.unique(
        rng.integers(0, shape, size=(n, len(shape))), axis=0
    )
    return SparseTensor(tuple(shape), coords, rng.standard_normal(coords.shape[0]))


@pytest.fixture()
def root(tmp_path):
    """A catalog root with two registered studies."""
    catalog = StudyCatalog(tmp_path / "serving")
    catalog.register(
        "study", _make_sparse((6, 5, 4), seed=1), ranks=[3, 3, 3]
    )
    catalog.register(
        "other", _make_sparse((5, 4, 3), seed=2), ranks=[2, 2, 2]
    )
    return tmp_path / "serving"


@pytest.fixture()
def clean_value(root):
    """The fault-free answer every chaos run must reproduce."""
    return StudyCatalog(root).engine("study").point((1, 2, 3))


def _corrupt_study(root, chaos_seed) -> StudyCatalog:
    """A fresh catalog whose first block read, the study's, gets a
    ``corrupt`` fault: real bit flips in the block file on disk."""
    plan = plan_of(
        [FaultSpec(site="storage.block-read", kind="corrupt",
                   target="ensemble/*", times=1)],
        seed=chaos_seed,
    )
    injector = FaultInjector(plan)
    catalog = StudyCatalog(root)
    with use_injector(injector):
        with pytest.raises(BlockCorruptionError):
            catalog.engine("study")
    assert injector.summary()["injected"] == 1
    return catalog


class TestCorruptBlock:
    def test_corrupt_block_fails_only_its_study(
        self, root, clean_value, chaos_seed
    ):
        other_value = StudyCatalog(root).engine("other").point((1, 2, 0))
        catalog = _corrupt_study(root, chaos_seed)

        async def serve():
            async with ServingServer(catalog) as server:
                with pytest.raises(BlockCorruptionError):
                    await server.point("study", (1, 2, 3))
                with pytest.raises(BlockCorruptionError):
                    await server.topk("study", 3)
                value = await server.point("other", (1, 2, 0))
                return server.stats, value

        registry = MetricsRegistry()
        with use_metrics(registry):
            stats, value = asyncio.run(serve())
        assert value == other_value
        assert (stats.errors, stats.served) == (2, 1)
        assert registry.counter(
            "serving.errors.BlockCorruptionError"
        ).value == 2
        # no bundle of the corrupt study was ever cached
        assert len(catalog.hot_factors) == 1
        # the damage is on disk: a fresh session fails the same way
        with pytest.raises(BlockCorruptionError):
            StudyCatalog(root).engine("study")

    def test_reregistering_heals_the_study(
        self, root, clean_value, chaos_seed
    ):
        catalog = _corrupt_study(root, chaos_seed)
        catalog.register(
            "study", _make_sparse((6, 5, 4), seed=1), ranks=[3, 3, 3],
            overwrite=True,
        )
        assert catalog.engine("study").point((1, 2, 3)) == clean_value
        fresh = StudyCatalog(root)
        assert fresh.engine("study").point((1, 2, 3)) == clean_value


class TestQueryFaults:
    def test_injected_query_fault_is_typed_and_isolated(
        self, root, clean_value, chaos_seed
    ):
        """A raise fault fails one batch with the fault's provenance;
        the worker survives and the next query is answered."""
        plan = plan_of(
            [FaultSpec(site="serving.query", kind="raise",
                       target="study/*", times=1)],
            seed=chaos_seed,
        )
        injector = FaultInjector(plan)

        async def serve():
            catalog = StudyCatalog(root)
            async with ServingServer(catalog) as server:
                with pytest.raises(FaultInjectionError) as excinfo:
                    await server.point("study", (1, 2, 3))
                assert excinfo.value.site == "serving.query"
                value = await server.point("study", (1, 2, 3))
                return server.stats, value

        with use_injector(injector):
            stats, value = asyncio.run(serve())
        assert value == pytest.approx(clean_value, abs=1e-12)
        assert stats.errors == 1
        assert stats.served == 1
        assert injector.summary()["injected"] == 1

    def test_injected_delay_only_slows(self, root, clean_value, chaos_seed):
        plan = plan_of(
            [FaultSpec(site="serving.query", kind="delay",
                       target="study/*", times=1, delay_seconds=0.05)],
            seed=chaos_seed,
        )
        injector = FaultInjector(plan)

        async def serve():
            catalog = StudyCatalog(root)
            async with ServingServer(catalog) as server:
                return await server.point("study", (1, 2, 3))

        with use_injector(injector):
            value = asyncio.run(serve())
        assert value == pytest.approx(clean_value, abs=1e-12)
        assert injector.summary()["injected"] == 1
