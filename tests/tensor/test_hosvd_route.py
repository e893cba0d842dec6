"""``hosvd`` has one route: a sparse input is densified, then takes the
same dense LAPACK/Gram-of-unfolding path as a dense input.

So ``hosvd(x)`` and ``hosvd(x.to_dense())`` must be bit-identical for
every shape, density and rank, including tensors with empty fibers and
no stored cell at all.  The ``hosvd`` span records the input kind but
no route: there is no choice left to record.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import Tracer, use_tracer
from repro.sampling import GridSampler, RandomSampler, SliceSampler
from repro.tensor import SparseTensor, TuckerTensor, clip_ranks, hosvd


def _assert_bit_identical(a: TuckerTensor, b: TuckerTensor) -> None:
    assert np.array_equal(a.core, b.core)
    assert len(a.factors) == len(b.factors)
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa, fb)


@st.composite
def sparse_cases(draw):
    """A sparse tensor plus one in-range rank per mode.  Densities run
    from empty to full; ``empty_fiber`` clears one whole slice so some
    mode has an all-zero row in its unfolding."""
    ndim = draw(st.integers(2, 5))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=ndim,
                                max_size=ndim)))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < density
    if draw(st.booleans()):  # empty fiber
        mode = draw(st.integers(0, ndim - 1))
        index = draw(st.integers(0, shape[mode] - 1))
        np.moveaxis(mask, mode, 0)[index] = False
    coords = np.argwhere(mask)
    values = rng.standard_normal(coords.shape[0])
    # a rank may not exceed either side of its mode's unfolding
    total = int(np.prod(shape))
    ranks = tuple(draw(st.integers(1, min(size, total // size)))
                  for size in shape)
    return SparseTensor(shape, coords, values), ranks


class TestOneRoute:
    @given(case=sparse_cases())
    @settings(max_examples=80, deadline=None)
    def test_sparse_input_is_bit_identical_to_its_densification(self, case):
        sparse, ranks = case
        _assert_bit_identical(hosvd(sparse, ranks),
                              hosvd(sparse.to_dense(), ranks))

    def test_span_records_input_kind_and_no_route(self):
        rng = np.random.default_rng(9)
        dense = rng.standard_normal((5, 6, 7))
        dense[np.abs(dense) < 0.5] = 0.0
        sparse = SparseTensor.from_dense(dense)
        with use_tracer(Tracer()) as tracer:
            hosvd(sparse, (2, 2, 2))
            hosvd(dense, (2, 2, 2))
        spans = [s for s in tracer.iter_spans() if s.name == "hosvd"]
        assert [s.attrs["sparse"] for s in spans] == [True, False]
        assert all("route" not in s.attrs for s in spans)


class TestGoldenSamples:
    @pytest.mark.parametrize(
        "sampler",
        [RandomSampler(7), GridSampler(), SliceSampler(7)],
        ids=lambda sampler: sampler.name,
    )
    def test_sparse_input_equals_dense_input(self, pendulum_study, sampler):
        """On the conventional baselines' own samples the sparse
        ensemble and its densification decompose bit for bit alike."""
        truth = pendulum_study.truth
        sample = sampler.sample(truth.shape, pendulum_study.matched_budget())
        ensemble = SparseTensor(
            truth.shape, sample.coords, truth[tuple(sample.coords.T)]
        )
        ranks = clip_ranks(truth.shape, [3] * truth.ndim)
        _assert_bit_identical(hosvd(ensemble, ranks),
                              hosvd(ensemble.to_dense(), ranks))
