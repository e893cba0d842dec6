"""Property-based tests (hypothesis) on the core data structures and
the invariants the paper's arithmetic relies on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import join_tensor, zero_join_tensor
from repro.core.row_select import align_columns, row_select
from repro.sampling import (
    GridSampler,
    PartitionBudget,
    PFPartition,
    RandomSampler,
)
from repro.tensor import (
    SparseTensor,
    deterministic_signs,
    hosvd,
    ttm,
    unfold,
)

shapes3 = st.tuples(
    st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)
)


def dense_tensors(shape_strategy=shapes3):
    return shape_strategy.flatmap(
        lambda shape: hnp.arrays(
            dtype=np.float64,
            shape=shape,
            elements=st.floats(-10, 10, allow_nan=False),
        )
    )


class TestUnfoldProperties:
    @given(tensor=dense_tensors(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_unfold_permutes_the_cells(self, tensor, data):
        mode = data.draw(st.integers(0, tensor.ndim - 1))
        matrix = unfold(tensor, mode)
        assert matrix.shape[0] * matrix.shape[1] == tensor.size
        assert np.array_equal(
            np.sort(matrix, axis=None), np.sort(tensor, axis=None)
        )

    @given(tensor=dense_tensors(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_unfold_preserves_norm(self, tensor, data):
        mode = data.draw(st.integers(0, tensor.ndim - 1))
        assert np.linalg.norm(unfold(tensor, mode)) == pytest.approx(
            np.linalg.norm(tensor.ravel()), abs=1e-9
        )


class TestTtmProperties:
    @given(tensor=dense_tensors(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, tensor, data):
        mode = data.draw(st.integers(0, tensor.ndim - 1))
        rows = data.draw(st.integers(1, 4))
        matrix = data.draw(
            hnp.arrays(
                np.float64,
                (rows, tensor.shape[mode]),
                elements=st.floats(-5, 5, allow_nan=False),
            )
        )
        assert np.allclose(
            ttm(2.0 * tensor, matrix, mode), 2.0 * ttm(tensor, matrix, mode)
        )


class TestSparseProperties:
    @given(
        dense=dense_tensors(),
    )
    @settings(max_examples=30, deadline=None)
    def test_from_dense_roundtrip(self, dense):
        tensor = SparseTensor.from_dense(dense)
        assert np.allclose(tensor.to_dense(), dense)

    @given(dense=dense_tensors(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_transpose_matches_numpy(self, dense, data):
        perm = data.draw(st.permutations(range(dense.ndim)))
        tensor = SparseTensor.from_dense(dense)
        assert np.allclose(
            tensor.transpose(tuple(perm)).to_dense(),
            np.transpose(dense, perm),
        )


class TestSvdProperties:
    @given(
        matrix=hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 8), st.integers(2, 8)),
            elements=st.floats(-10, 10, allow_nan=False),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_deterministic_signs_idempotent(self, matrix):
        once = deterministic_signs(matrix)
        assert np.allclose(deterministic_signs(once), once)


class TestHosvdProperties:
    @given(tensor=dense_tensors())
    @settings(max_examples=15, deadline=None)
    def test_full_rank_hosvd_is_exact(self, tensor):
        # A mode's rank is capped by both its size and the product of
        # the other modes (the matricization's column count).
        total = int(np.prod(tensor.shape))
        ranks = tuple(
            min(s, total // s) for s in tensor.shape
        )
        tucker = hosvd(tensor, ranks)
        assert tucker.relative_error(tensor) < 1e-8 or (
            np.linalg.norm(tensor) == 0
        )


class TestSamplerProperties:
    @given(budget=st.integers(1, 200), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_random_sampler_budget_and_bounds(self, budget, seed):
        shape = (4, 5, 3, 4)
        budget = min(budget, int(np.prod(shape)))
        sample = RandomSampler(seed=seed).sample(shape, budget)
        assert sample.n_cells == budget
        assert (sample.coords >= 0).all()
        assert (sample.coords < np.asarray(shape)).all()

    @given(budget=st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_grid_sampler_never_exceeds_budget(self, budget):
        shape = (4, 5, 3, 4)
        budget = min(budget, int(np.prod(shape)))
        sample = GridSampler().sample(shape, budget)
        assert 1 <= sample.n_cells <= budget


class TestStitchProperties:
    @given(
        n1=st.integers(1, 10),
        n2=st.integers(1, 10),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=25, deadline=None)
    def test_join_entry_count_formula(self, n1, n2, seed):
        """Join nnz == sum over pivots of |E1(p)| * |E2(p)|."""
        part = PFPartition((3, 3, 3, 3, 3), (4,), (0, 1), (2, 3))
        gen = np.random.default_rng(seed)

        def random_sub(which, count):
            shape = part.sub_shape(which)
            size = int(np.prod(shape))
            flat = gen.choice(size, size=min(count, size), replace=False)
            coords = np.stack(np.unravel_index(flat, shape), axis=1)
            return SparseTensor(
                shape, coords, gen.standard_normal(coords.shape[0])
            )

        x1 = random_sub(1, n1)
        x2 = random_sub(2, n2)
        joined = join_tensor(x1, x2, part)
        expected = 0
        for pivot in range(3):
            count1 = int((x1.coords[:, 0] == pivot).sum())
            count2 = int((x2.coords[:, 0] == pivot).sum())
            expected += count1 * count2
        assert joined.nnz == expected

    @given(n1=st.integers(1, 10), n2=st.integers(1, 10), seed=st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_zero_join_supersedes_join(self, n1, n2, seed):
        """Every join cell appears in the zero-join with the same value."""
        part = PFPartition((3, 3, 3, 3, 3), (4,), (0, 1), (2, 3))
        gen = np.random.default_rng(seed)

        def random_sub(which, count):
            shape = part.sub_shape(which)
            size = int(np.prod(shape))
            flat = gen.choice(size, size=min(count, size), replace=False)
            coords = np.stack(np.unravel_index(flat, shape), axis=1)
            return SparseTensor(
                shape, coords, gen.standard_normal(coords.shape[0])
            )

        x1 = random_sub(1, n1)
        x2 = random_sub(2, n2)
        joined = join_tensor(x1, x2, part)
        zero_joined = zero_join_tensor(x1, x2, part)
        zero_dense = zero_joined.to_dense()
        for index, value in joined.items():
            assert zero_dense[index] == pytest.approx(value)


class TestRowSelectProperties:
    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_selected_rows_maximize_energy(self, rows, cols, data):
        u1 = data.draw(
            hnp.arrays(np.float64, (rows, cols), elements=st.floats(-5, 5))
        )
        u2 = data.draw(
            hnp.arrays(np.float64, (rows, cols), elements=st.floats(-5, 5))
        )
        selected = row_select(u1, u2)
        aligned = align_columns(u1, u2)
        for i in range(rows):
            expected = max(
                np.linalg.norm(u1[i]), np.linalg.norm(aligned[i])
            )
            assert np.linalg.norm(selected[i]) == pytest.approx(expected)


class TestBudgetProperties:
    @given(
        p=st.integers(1, 20), e1=st.integers(1, 20), e2=st.integers(1, 20)
    )
    @settings(max_examples=50, deadline=None)
    def test_budget_arithmetic(self, p, e1, e2):
        budget = PartitionBudget(p, e1, e2)
        assert budget.cells == p * (e1 + e2)
        assert budget.join_entries == p * e1 * e2
        # effective gain never below half the smaller side
        assert budget.join_entries * 2 >= budget.cells * min(e1, e2) / max(e1, e2)
