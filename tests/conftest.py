"""Shared fixtures: tiny ground-truth studies reused across tests.

Building the full-space tensor is the slow part of the pipeline, so
the studies are session-scoped; each test treats them as read-only.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import EnsembleStudy
from repro.simulation import DoublePendulum, Lorenz, TriplePendulum


@pytest.fixture(scope="session")
def pendulum_study() -> EnsembleStudy:
    """Double-pendulum study at resolution 6 (tiny but non-trivial)."""
    return EnsembleStudy.create(DoublePendulum(), resolution=6)


@pytest.fixture(scope="session")
def pendulum_subs(pendulum_study):
    """Full-density cross-sampled sub-ensembles of ``pendulum_study``
    as dense arrays: ``(partition, x1, x2)``, seed 7."""
    from repro.sampling import budget_for_fractions

    partition = pendulum_study.default_partition()
    x1, x2, _cells, _runs = pendulum_study.sample_sub_ensembles(
        partition, budget_for_fractions(partition), seed=7
    )
    return partition, x1.to_dense(), x2.to_dense()


@pytest.fixture(scope="session")
def lorenz_study() -> EnsembleStudy:
    return EnsembleStudy.create(Lorenz(), resolution=5)


@pytest.fixture(scope="session")
def triple_study() -> EnsembleStudy:
    return EnsembleStudy.create(TriplePendulum(), resolution=5)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


# ----------------------------------------------------------------------
# D-M2TD determinism harness, shared by tests/distributed, tests/runtime
# and tests/faults: one canonical problem, one byte-level comparison.
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def dm2td_inputs():
    """Canonical small D-M2TD problem: ``(x1, x2, partition, ranks)``."""
    from repro.sampling import PFPartition
    from repro.tensor import SparseTensor

    partition = PFPartition((4, 4, 4, 4, 4), (4,), (0, 1), (2, 3))
    generator = np.random.default_rng(0)
    x1 = SparseTensor.from_dense(
        generator.standard_normal(partition.sub_shape(1)) + 2,
        keep_zeros=True,
    )
    x2 = SparseTensor.from_dense(
        generator.standard_normal(partition.sub_shape(2)) + 2,
        keep_zeros=True,
    )
    return x1, x2, partition, [2] * 5


def dm2td_payload(run):
    """The byte-level identity of a D-M2TD run: core + every factor."""
    tucker = run.result.tucker
    return (
        tucker.core.tobytes(),
        tuple(factor.tobytes() for factor in tucker.factors),
    )


@pytest.fixture(scope="session")
def dm2td_payload_fn():
    """The payload extractor as a fixture, so subdirectory suites can
    compare runs without importing from conftest modules."""
    return dm2td_payload


@pytest.fixture()
def assert_identical_across_workers():
    """Byte-identical-determinism check: ``check(run_fn)`` calls
    ``run_fn(workers)`` for workers 1/2/4 and asserts every run's
    decomposition payload (core + factors, raw bytes) is identical.
    Returns the common payload so callers can compare against a
    baseline run (e.g. a fault-free one)."""

    def check(run_fn, workers=(1, 2, 4)):
        payloads = {w: dm2td_payload(run_fn(w)) for w in workers}
        baseline = payloads[workers[0]]
        for w in workers[1:]:
            assert payloads[w] == baseline, (
                f"D-M2TD output with {w} workers diverges from "
                f"{workers[0]}-worker run"
            )
        return baseline

    return check


# ----------------------------------------------------------------------
# Chaos harness, shared by tests/faults and tests/campaigns: one seed
# knob for the whole suite, one fault-free baseline payload.
# ----------------------------------------------------------------------

#: One knob for every chaos suite (CI matrix: 0, 1, 2).  Any CI chaos
#: failure replays locally by exporting the same M2TD_CHAOS_SEED.
CHAOS_SEED = int(os.environ.get("M2TD_CHAOS_SEED", "0"))


@pytest.fixture(scope="session")
def chaos_seed() -> int:
    return CHAOS_SEED


@pytest.fixture(scope="session")
def fault_free_payload(dm2td_inputs, dm2td_payload_fn):
    """The ground truth every chaos run must reproduce byte-for-byte:
    one fault-free D-M2TD run on the canonical inputs."""
    from repro.distributed import distributed_m2td

    x1, x2, part, ranks = dm2td_inputs
    return dm2td_payload_fn(distributed_m2td(x1, x2, part, ranks))
