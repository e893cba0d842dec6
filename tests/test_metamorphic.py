"""Metamorphic tests: relations that must hold between *pairs* of runs.

Three families from the paper's arithmetic:

* HOSVD/Tucker reconstruction is equivariant under mode permutation —
  relabelling the modes of the input relabels the reconstruction and
  changes nothing else;
* zero-join stitching degenerates to plain join stitching when every
  pivot configuration is fully matched on both sides (no one-sided
  observations exist to pad);
* unfold is an exact bijection (pure index shuffling: each cell lands
  once, in the Kolda column order, so equality is bit-for-bit, not
  approximate) — and is unchanged with a live tracer installed, i.e.
  instrumentation cannot perturb numerics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import join_tensor, zero_join_tensor
from repro.observability import Tracer, use_tracer
from repro.sampling import PFPartition
from repro.tensor import SparseTensor, hosvd, unfold

from .generators import kolda_unfolding_of_arange

shapes3 = st.tuples(
    st.integers(2, 4), st.integers(2, 4), st.integers(2, 4)
)


def dense_tensors(shape_strategy=shapes3):
    return shape_strategy.flatmap(
        lambda shape: hnp.arrays(
            dtype=np.float64,
            shape=shape,
            elements=st.floats(-10, 10, allow_nan=False),
        )
    )


class TestHosvdPermutationEquivariance:
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_commutes_with_mode_permutation(self, seed, data):
        # Gaussian entries keep the mode-n spectra non-degenerate, so
        # the truncated subspaces (and hence the reconstructions) are
        # well defined on both sides of the relation.
        ndim = data.draw(st.integers(3, 4))
        shape = tuple(
            data.draw(st.integers(2, 4), label=f"dim{m}")
            for m in range(ndim)
        )
        ranks = [
            data.draw(st.integers(1, size), label=f"rank{m}")
            for m, size in enumerate(shape)
        ]
        perm = tuple(data.draw(st.permutations(range(ndim))))
        tensor = np.random.default_rng(seed).standard_normal(shape)

        base = hosvd(tensor, ranks).reconstruct()
        permuted = hosvd(
            tensor.transpose(perm), [ranks[m] for m in perm]
        ).reconstruct()

        assert np.allclose(permuted, base.transpose(perm), atol=1e-6)

    def test_full_rank_identity_under_permutation(self, rng):
        tensor = rng.standard_normal((3, 4, 2))
        recon = hosvd(tensor.transpose(2, 0, 1), [2, 3, 4]).reconstruct()
        assert np.allclose(recon, tensor.transpose(2, 0, 1), atol=1e-10)


class TestZeroJoinDegeneratesToJoin:
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_agreement_on_fully_matched_pivots(self, seed, data):
        # Dense sub-tensors kept with explicit zeros: every pivot
        # configuration appears on both sides with every free
        # configuration, so zero-join has nothing one-sided to pad.
        dims = tuple(
            data.draw(st.integers(2, 3), label=f"dim{m}") for m in range(4)
        )
        partition = PFPartition(dims, (0,), (1,), (2, 3))
        rng_local = np.random.default_rng(seed)
        x1 = SparseTensor.from_dense(
            rng_local.standard_normal(partition.sub_shape(1)) + 2,
            keep_zeros=True,
        )
        x2 = SparseTensor.from_dense(
            rng_local.standard_normal(partition.sub_shape(2)) + 2,
            keep_zeros=True,
        )

        plain = join_tensor(x1, x2, partition)
        zero = zero_join_tensor(x1, x2, partition)

        assert zero.shape == plain.shape
        assert np.allclose(zero.to_dense(), plain.to_dense(), atol=1e-12)

    def test_one_sided_observation_breaks_the_degeneracy(self, rng):
        # Sanity check of the metamorphic premise: dropping cells from
        # one side re-activates the zero-padding path.
        partition = PFPartition((2, 2, 2, 2), (0,), (1,), (2, 3))
        dense1 = rng.standard_normal(partition.sub_shape(1)) + 2
        dense2 = rng.standard_normal(partition.sub_shape(2)) + 2
        x1 = SparseTensor.from_dense(dense1, keep_zeros=True)
        sparse2 = dense2.copy()
        sparse2.flat[0] = 0.0  # drop one observation from X2
        x2 = SparseTensor.from_dense(sparse2)

        plain = join_tensor(x1, x2, partition)
        zero = zero_join_tensor(x1, x2, partition)
        assert zero.nnz >= plain.nnz


class TestUnfoldBijection:
    @given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_arange_lands_once_each_in_kolda_order(self, shape, data):
        mode = data.draw(st.integers(0, len(shape) - 1))
        tensor = np.arange(np.prod(shape)).reshape(shape)
        matrix = unfold(tensor, mode)
        # Pure index shuffling: every cell exactly once, where the
        # definition puts it.
        assert np.array_equal(np.sort(matrix, axis=None), tensor.ravel())
        assert np.array_equal(matrix, kolda_unfolding_of_arange(shape, mode))

    @given(tensor=dense_tensors(), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_unfold_unchanged_by_active_tracer(self, tensor, data):
        mode = data.draw(st.integers(0, tensor.ndim - 1))
        untraced = unfold(tensor, mode)
        with use_tracer(Tracer()) as tracer:
            traced = unfold(tensor, mode)
        assert np.array_equal(traced, untraced)
        assert {s.name for s in tracer.iter_spans()} == {"unfold"}


class TestTracingIsInert:
    def test_m2td_results_identical_with_and_without_tracing(
        self, pendulum_study
    ):
        ranks = [2] * pendulum_study.space.n_modes
        base = pendulum_study.run_m2td(ranks, variant="select", seed=7)
        with use_tracer(Tracer()):
            traced = pendulum_study.run_m2td(ranks, variant="select", seed=7)
        assert traced.accuracy == pytest.approx(base.accuracy, abs=0)
        assert traced.cells == base.cells
        assert traced.join_nnz == base.join_nnz
