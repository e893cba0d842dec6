"""D-M2TD: distributed must equal single-node, phases must account."""

import numpy as np
import pytest

from repro.core.m2td import m2td_decompose
from repro.distributed import ClusterModel, distributed_m2td
from repro.exceptions import MapReduceError
from repro.sampling import PFPartition
from repro.tensor import SparseTensor

SHAPE = (4, 4, 4, 4, 4)
RANKS = [2] * 5


def partition():
    return PFPartition(SHAPE, (4,), (0, 1), (2, 3))


@pytest.fixture()
def subs(rng):
    part = partition()
    x1 = SparseTensor.from_dense(
        rng.standard_normal(part.sub_shape(1)) + 2.0, keep_zeros=True
    )
    x2 = SparseTensor.from_dense(
        rng.standard_normal(part.sub_shape(2)) + 2.0, keep_zeros=True
    )
    return part, x1, x2


class TestEquivalence:
    @pytest.mark.parametrize("variant", ["avg", "select"])
    def test_matches_single_node(self, subs, variant):
        part, x1, x2 = subs
        local = m2td_decompose(x1, x2, part, RANKS, variant=variant)
        dist = distributed_m2td(x1, x2, part, RANKS, variant=variant)
        assert np.allclose(local.tucker.core, dist.result.tucker.core)
        for a, b in zip(local.tucker.factors, dist.result.tucker.factors):
            assert np.allclose(a, b)

    def test_zero_join_matches(self, subs, rng):
        part, _x1_full, _x2_full = subs
        # Sparse random sub-ensembles exercise the zero-join path.
        def random_sub(which, seed):
            shape = part.sub_shape(which)
            gen = np.random.default_rng(seed)
            size = int(np.prod(shape))
            flat = gen.choice(size, size=12, replace=False)
            coords = np.stack(np.unravel_index(flat, shape), axis=1)
            return SparseTensor(shape, coords, gen.standard_normal(12) + 1)

        x1, x2 = random_sub(1, 5), random_sub(2, 6)
        local = m2td_decompose(
            x1, x2, part, RANKS, variant="select", join_kind="zero"
        )
        dist = distributed_m2td(
            x1, x2, part, RANKS, variant="select", join_kind="zero"
        )
        assert np.allclose(
            local.tucker.core, dist.result.tucker.core, atol=1e-10
        )
        assert dist.result.join_nnz == local.join_nnz

    def test_concat_rejected(self, subs):
        part, x1, x2 = subs
        with pytest.raises(MapReduceError):
            distributed_m2td(x1, x2, part, RANKS, variant="concat")


class TestPhaseAccounting:
    def test_phase_stats_present(self, subs):
        part, x1, x2 = subs
        dist = distributed_m2td(x1, x2, part, RANKS)
        assert set(dist.job_stats) == {"phase1", "phase2", "phase3"}
        # one reduce task per sub-tensor in phase 1
        assert len(dist.job_stats["phase1"].reduce_tasks) == 2
        # one reduce task per pivot configuration in phases 2 and 3
        assert len(dist.job_stats["phase2"].reduce_tasks) == 4
        assert len(dist.job_stats["phase3"].reduce_tasks) == 4

    def test_phase_times_positive_and_scaling(self, subs):
        part, x1, x2 = subs
        dist = distributed_m2td(x1, x2, part, RANKS)
        t1 = dist.total_time(ClusterModel(n_servers=1))
        t18 = dist.total_time(ClusterModel(n_servers=18))
        assert t1 > t18 > 0

    def test_join_side_compute_outweighs_half_of_phase1(self, pendulum_subs):
        """Raw per-phase compute on a real study: the join-side work
        (stitch + core recovery) is at least half the sub-tensor
        decompositions.  Each phase is ~1 ms and jittery, hence the
        slack."""
        partition, x1, x2 = pendulum_subs
        dist = distributed_m2td(
            SparseTensor.from_dense(x1, keep_zeros=True),
            SparseTensor.from_dense(x2, keep_zeros=True),
            partition, [3] * 5, variant="select",
        )
        compute = {
            phase: stats.total_compute_seconds
            for phase, stats in dist.job_stats.items()
        }
        join_side = compute["phase2"] + compute["phase3"]
        assert join_side >= 0.5 * compute["phase1"]
