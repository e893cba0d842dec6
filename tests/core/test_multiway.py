"""Multiway partition-stitch (extension beyond the paper's m = 2)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.join_tensor import dense_join_from_subs
from repro.core.m2td import decompose_sub_ensembles, m2td_decompose
from repro.core.multiway import (
    MWPartition,
    m2td_multiway,
    multiway_budget_cells,
    multiway_study,
)
from repro.core.stitch import dense_join, observed_layout
from repro.exceptions import PartitionError, RankError, ShapeError, StitchError
from repro.simulation import DoublePendulum, ParameterSpace
from repro.tensor import SparseTensor

from ..generators import materialized_core

SHAPE = (4, 4, 4, 4, 4)


def partition_2way():
    return MWPartition(SHAPE, (4,), ((0, 1), (2, 3)))


def partition_4way():
    return MWPartition(SHAPE, (4,), ((0,), (1,), (2,), (3,)))


def layouts(subs, part):
    return [observed_layout(x, part, which) for which, x in enumerate(subs, 1)]


def multiway_join_dense(subs, part):
    """The m-way :func:`dense_join` of complete sub-ensembles."""
    return dense_join(layouts(subs, part), part, "join")[0]


class TestMWPartition:
    def test_geometry(self):
        part = partition_4way()
        assert part.m == 4
        assert part.k == 1
        assert part.sub_modes(2) == (4, 2)
        assert part.join_modes == (4, 0, 1, 2, 3)

    def test_join_to_original_inverse(self):
        part = partition_2way()
        recovered = [part.join_modes[p] for p in part.join_to_original]
        assert recovered == list(range(5))

    def test_frozen_modes(self):
        part = partition_4way()
        assert part.frozen_modes(0) == (1, 2, 3)
        assert part.frozen_modes(3) == (0, 1, 2)

    def test_rejects_incomplete(self):
        with pytest.raises(PartitionError):
            MWPartition(SHAPE, (4,), ((0, 1), (2,)))

    def test_rejects_single_group(self):
        with pytest.raises(PartitionError):
            MWPartition(SHAPE, (4,), ((0, 1, 2, 3),))

    def test_rejects_empty_group(self):
        with pytest.raises(PartitionError):
            MWPartition(SHAPE, (4,), ((0, 1, 2, 3), ()))

    def test_as_pf_partition(self):
        pf = partition_2way().as_pf_partition()
        assert pf.pivot_modes == (4,)
        assert pf.s1_free == (0, 1)
        assert pf.s2_free == (2, 3)

    def test_as_pf_partition_needs_m2(self):
        with pytest.raises(PartitionError):
            partition_4way().as_pf_partition()

    def test_for_space_defaults_to_singletons(self):
        space = ParameterSpace(DoublePendulum(), resolution=4)
        part = MWPartition.for_space(space, pivot="t")
        assert part.m == 4
        assert all(len(g) == 1 for g in part.free_groups)

    def test_extract_sub_tensor(self, rng):
        part = partition_4way()
        full = rng.standard_normal(SHAPE)
        sub = part.extract_sub_tensor(1, full)
        assert sub.shape == (4, 4)
        fixed = part.fixed_indices
        assert sub[3, 2] == pytest.approx(
            full[fixed[0], 2, fixed[2], fixed[3], 3]
        )


class TestMultiwayJoin:
    def test_values_average_all_sides(self, rng):
        part = partition_4way()
        subs = [rng.standard_normal(part.sub_shape(i)) for i in range(4)]
        joined = multiway_join_dense(subs, part)
        assert joined.shape == (4, 4, 4, 4, 4)
        expected = 0.25 * (
            subs[0][2, 1] + subs[1][2, 0] + subs[2][2, 3] + subs[3][2, 2]
        )
        assert joined[2, 1, 0, 3, 2] == pytest.approx(expected)

    def test_m2_matches_pairwise_join(self, rng):
        part = partition_2way()
        x1 = rng.standard_normal(part.sub_shape(0))
        x2 = rng.standard_normal(part.sub_shape(1))
        multiway = multiway_join_dense([x1, x2], part)
        pairwise = dense_join_from_subs(x1, x2, part.as_pf_partition())
        assert np.allclose(multiway, pairwise)

    def test_rejects_wrong_count(self, rng):
        part = partition_4way()
        with pytest.raises(StitchError):
            multiway_join_dense([rng.standard_normal((4, 4))], part)

    def test_zero_join_needs_two_sides(self, rng):
        part = partition_4way()
        subs = [rng.standard_normal(part.sub_shape(i)) for i in range(4)]
        with pytest.raises(StitchError, match="zero-join"):
            dense_join(layouts(subs, part), part, "zero")
        with pytest.raises(StitchError, match="zero-join"):
            decompose_sub_ensembles(subs, part, [2] * 5, join_kind="zero")

    @given(
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.1, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_partial_three_way_join_matches_per_cell_loop(
        self, seed, density
    ):
        rng = np.random.default_rng(seed)
        part = MWPartition((3, 2, 3, 2), (3,), ((0,), (1,), (2,)))
        subs = []
        for index in range(3):
            dense = rng.standard_normal(part.sub_shape(index))
            observed = rng.random(dense.shape) < density
            subs.append(SparseTensor(
                dense.shape, np.argwhere(observed), dense[observed]
            ))
        joined, stored, nnz = dense_join(layouts(subs, part), part, "join")
        cells = [
            {tuple(c): v for c, v in zip(sub.coords, sub.values)}
            for sub in subs
        ]
        expected = np.zeros(part.join_shape)
        expected_stored = np.zeros(part.join_shape, dtype=bool)
        for cell in itertools.product(*map(range, part.join_shape)):
            pivot, free = cell[:1], cell[1:]
            keys = [pivot + (a,) for a in free]
            if all(key in side for key, side in zip(keys, cells)):
                expected[cell] = sum(
                    side[key] for key, side in zip(keys, cells)
                ) / 3
                expected_stored[cell] = True
        assert np.array_equal(stored, expected_stored)
        assert nnz == int(expected_stored.sum())
        assert np.allclose(joined, expected, rtol=1e-15, atol=0)


class TestM2tdMultiway:
    @pytest.mark.parametrize("variant", ["avg", "concat", "select"])
    def test_m2_matches_two_way_engine(self, rng, variant):
        part = partition_2way()
        x1 = rng.standard_normal(part.sub_shape(0)) + 2
        x2 = rng.standard_normal(part.sub_shape(1)) + 2
        ranks = [2] * 5
        multiway = m2td_multiway([x1, x2], part, ranks, variant=variant)
        two_way = m2td_decompose(
            x1, x2, part.as_pf_partition(), ranks, variant=variant
        )
        assert np.array_equal(multiway.tucker.core, two_way.tucker.core)
        assert len(multiway.tucker.factors) == len(two_way.tucker.factors)
        for got, want in zip(multiway.tucker.factors, two_way.tucker.factors):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("variant", ["avg", "concat", "select"])
    def test_closed_form_core_matches_materialized(self, rng, variant):
        part = partition_4way()
        subs = [rng.standard_normal(part.sub_shape(i)) + 2 for i in range(4)]
        result = m2td_multiway(subs, part, [2] * 5, variant=variant)
        reference = materialized_core(
            multiway_join_dense(subs, part), result.tucker.factors
        )
        error = np.linalg.norm(result.tucker.core - reference)
        assert error <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("variant", ["avg", "concat", "select"])
    def test_four_way_runs(self, rng, variant):
        part = partition_4way()
        subs = [rng.standard_normal(part.sub_shape(i)) + 2 for i in range(4)]
        result = m2td_multiway(subs, part, [2] * 5, variant=variant)
        assert result.tucker.shape == SHAPE
        assert result.reconstruct_original().shape == SHAPE

    def test_rejects_unknown_variant(self, rng):
        part = partition_2way()
        subs = [rng.standard_normal(part.sub_shape(i)) for i in range(2)]
        with pytest.raises(StitchError):
            m2td_multiway(subs, part, [2] * 5, variant="median")

    def test_rejects_bad_ranks(self, rng):
        part = partition_2way()
        subs = [rng.standard_normal(part.sub_shape(i)) for i in range(2)]
        with pytest.raises(RankError):
            m2td_multiway(subs, part, [2] * 3)

    def test_rejects_non_positive_ranks(self, rng):
        part = partition_2way()
        subs = [rng.standard_normal(part.sub_shape(i)) for i in range(2)]
        with pytest.raises(RankError):
            m2td_multiway(subs, part, [0, -3, 2, 2, 2])


class TestMultiwayStudy:
    def test_budget_formula(self):
        assert multiway_budget_cells(partition_2way()) == 4 * (16 + 16)
        assert multiway_budget_cells(partition_4way()) == 4 * (4 * 4)

    def test_study_on_ground_truth(self, pendulum_study):
        part = MWPartition.for_space(pendulum_study.space, pivot="t")
        result, cells = multiway_study(
            pendulum_study.truth, part, [2] * 5, variant="select"
        )
        assert cells == multiway_budget_cells(part)
        assert 0 < result.accuracy(pendulum_study.truth) < 1
        # a truth that only broadcasts against the reconstruction
        with pytest.raises(ShapeError):
            result.accuracy(pendulum_study.truth[..., :1])
        with pytest.raises(StitchError, match="zero norm"):
            result.accuracy(np.zeros_like(pendulum_study.truth))
        for bad in (np.nan, np.inf):
            truth = pendulum_study.truth.copy()
            truth[1, 2, 3, 0, 4] = bad
            with pytest.raises(StitchError, match="non-finite"):
                result.accuracy(truth)
