"""Property-based tests for the extension modules: multiway
stitching, LHS sampling, and blocked storage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiway import MWPartition
from repro.core.stitch import dense_join, observed_layout
from repro.sampling import LatinHypercubeSampler
from repro.storage import BlockedLayout, assemble_from_blocks, split_into_blocks
from repro.tensor import SparseTensor

from .generators import random_sparse


def multiway_join(subs, partition):
    """The m-way :func:`dense_join` of complete sub-ensembles."""
    layouts = [
        observed_layout(sub, partition, which)
        for which, sub in enumerate(subs, 1)
    ]
    return dense_join(layouts, partition, "join")[0]


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
        joined = multiway_join(subs, partition)
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
        joined = multiway_join(subs, partition)
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
