"""Property-based tests for the extension modules: incremental SVD,
multiway stitching, LHS sampling, and blocked storage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.multiway import MWPartition, multiway_join_dense
from repro.sampling import LatinHypercubeSampler
from repro.storage import BlockedLayout, assemble_from_blocks, split_into_blocks
from repro.tensor import SparseTensor
from repro.tensor.incremental_svd import append_cols, append_rows, exact_svd

from .generators import random_sparse


def matrices(max_dim=10):
    return st.tuples(
        st.integers(2, max_dim), st.integers(2, max_dim)
    ).flatmap(
        lambda shape: hnp.arrays(
            np.float64, shape, elements=st.floats(-5, 5, allow_nan=False)
        )
    )


class TestIncrementalSvdProperties:
    @given(matrix=matrices(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_row_append_exact_at_full_rank(self, matrix, data):
        n_new = data.draw(st.integers(1, 3))
        rows = data.draw(
            hnp.arrays(
                np.float64,
                (n_new, matrix.shape[1]),
                elements=st.floats(-5, 5, allow_nan=False),
            )
        )
        full_rank = min(matrix.shape)
        u, s, vt = exact_svd(matrix, full_rank)
        target_rank = min(matrix.shape[0] + n_new, matrix.shape[1])
        u2, s2, vt2 = append_rows(u, s, vt, rows, rank=target_rank)
        full = np.vstack([matrix, rows])
        assert np.allclose((u2 * s2) @ vt2, full, atol=1e-6)

    @given(matrix=matrices(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_col_append_singular_values_match_batch(self, matrix, data):
        n_new = data.draw(st.integers(1, 3))
        cols = data.draw(
            hnp.arrays(
                np.float64,
                (matrix.shape[0], n_new),
                elements=st.floats(-5, 5, allow_nan=False),
            )
        )
        full_rank = min(matrix.shape)
        u, s, vt = exact_svd(matrix, full_rank)
        _u2, s2, _vt2 = append_cols(u, s, vt, cols, rank=full_rank)
        _ue, se, _vte = exact_svd(np.hstack([matrix, cols]), full_rank)
        assert np.allclose(np.sort(s2), np.sort(se), atol=1e-6)

    @given(matrix=matrices())
    @settings(max_examples=20, deadline=None)
    def test_updated_factors_orthonormal(self, matrix):
        rank = min(2, min(matrix.shape))
        u, s, vt = exact_svd(matrix, rank)
        rows = np.ones((1, matrix.shape[1]))
        u2, _s2, vt2 = append_rows(u, s, vt, rows, rank=rank)
        assert np.allclose(u2.T @ u2, np.eye(u2.shape[1]), atol=1e-7)
        assert np.allclose(vt2 @ vt2.T, np.eye(vt2.shape[0]), atol=1e-7)


class TestMultiwayProperties:
    @given(seed=st.integers(0, 500), m=st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_join_is_mean_of_broadcast_subs(self, seed, m):
        rng = np.random.default_rng(seed)
        shape = (3,) * (m + 1)
        groups = tuple((i,) for i in range(m))
        partition = MWPartition(shape, (m,), groups)
        subs = [
            rng.standard_normal(partition.sub_shape(i)) for i in range(m)
        ]
        joined = multiway_join_dense(subs, partition)
        # check a handful of random cells against the definition
        for _check in range(5):
            cell = tuple(rng.integers(0, 3, size=m + 1))
            pivot = cell[0]
            expected = np.mean(
                [subs[i][pivot, cell[1 + i]] for i in range(m)]
            )
            assert joined[cell] == pytest.approx(expected)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_join_norm_bounded_by_sub_norms(self, seed):
        rng = np.random.default_rng(seed)
        partition = MWPartition((3, 3, 3, 3, 3), (4,), ((0, 1), (2, 3)))
        subs = [
            rng.standard_normal(partition.sub_shape(i)) for i in range(2)
        ]
        joined = multiway_join_dense(subs, partition)
        assert np.abs(joined).max() <= max(
            np.abs(s).max() for s in subs
        ) + 1e-12


class TestLhsProperties:
    @given(budget=st.integers(1, 100), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_budget_and_uniqueness(self, budget, seed):
        shape = (5, 4, 6)
        budget = min(budget, int(np.prod(shape)))
        sample = LatinHypercubeSampler(seed=seed).sample(shape, budget)
        assert sample.n_cells == budget
        assert np.unique(sample.coords, axis=0).shape[0] == budget


class TestStorageProperties:
    @given(
        seed=st.integers(0, 1000),
        density=st.floats(0.05, 0.6),
        block=st.tuples(
            st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_split_assemble_roundtrip(self, seed, density, block):
        tensor = random_sparse((7, 6, 5), density, seed=seed)
        layout = BlockedLayout(tensor.shape, block)
        blocks = split_into_blocks(tensor, layout)
        assert assemble_from_blocks(layout, blocks) == tensor

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_block_nnz_partition(self, seed):
        tensor = random_sparse((8, 8), 0.3, seed=seed)
        layout = BlockedLayout((8, 8), (3, 3))
        blocks = split_into_blocks(tensor, layout)
        assert sum(b.nnz for b in blocks.values()) == tensor.nnz


class TestSparseDuplicateProperties:
    @given(
        seed=st.integers(0, 1000),
        n_cells=st.integers(1, 30),
    )
    @settings(max_examples=25, deadline=None)
    def test_duplicate_averaging_idempotent(self, seed, n_cells):
        rng = np.random.default_rng(seed)
        coords = rng.integers(0, 3, size=(n_cells, 2))
        values = rng.standard_normal(n_cells)
        once = SparseTensor((3, 3), coords, values)
        twice = SparseTensor((3, 3), once.coords, once.values)
        assert once == twice
