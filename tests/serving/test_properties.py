"""Property tests: factor-space queries equal dense reconstruction to
1e-10 on random Tucker tensors of 3-6 modes, with edge indices,
rank-clipped factors and repeated, unsorted slice indices exercised."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serving import FactorEngine
from repro.tensor import hosvd
from repro.tensor.tucker import TuckerTensor, clip_ranks


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_point_and_slice_match_reconstruct(data):
    ndim = data.draw(st.integers(3, 5), label="ndim")
    shape = tuple(
        data.draw(st.integers(2, 4), label=f"dim{m}") for m in range(ndim)
    )
    dense = data.draw(
        hnp.arrays(
            dtype=np.float64,
            shape=shape,
            elements=st.floats(-10, 10, allow_nan=False),
        ),
        label="tensor",
    )
    # Draw ranks beyond the mode extents on purpose: serving always
    # clips, and clipped factors must stay exact.
    ranks = [
        data.draw(st.integers(1, 6), label=f"rank{m}") for m in range(ndim)
    ]
    tucker = hosvd(dense, clip_ranks(shape, ranks))
    engine = FactorEngine(tucker)
    full = tucker.reconstruct()

    indices = [
        tuple(0 for _ in shape),                       # first cell
        tuple(s - 1 for s in shape),                   # last cell
        tuple(
            data.draw(st.integers(0, s - 1)) for s in shape
        ),                                             # random cell
    ]
    for index in indices:
        assert abs(engine.point(index) - full[index]) < 1e-10

    batched = engine.point_batch(np.asarray(indices))
    assert np.allclose(
        batched, [full[index] for index in indices], atol=1e-10
    )

    mode = data.draw(st.integers(0, ndim - 1), label="slice_mode")
    for index in (0, shape[mode] - 1):
        assert np.allclose(
            engine.slice(mode, index),
            np.take(full, index, axis=mode),
            atol=1e-10,
        )


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_slice_batch_matches_reconstruct_on_every_mode(data):
    """``slice_batch`` on every mode, with repeated unsorted indices,
    equals the dense hyperplanes: pins the axis order of the projected
    core."""
    ndim = data.draw(st.integers(3, 6), label="ndim")
    shape = tuple(
        data.draw(st.integers(2, 4), label=f"dim{m}") for m in range(ndim)
    )
    ranks = tuple(
        data.draw(st.integers(1, 3), label=f"rank{m}") for m in range(ndim)
    )
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    tucker = TuckerTensor(
        rng.standard_normal(ranks),
        [rng.standard_normal((size, r)) for size, r in zip(shape, ranks)],
    )
    engine = FactorEngine(tucker)
    full = tucker.reconstruct()
    for mode in range(ndim):
        indices = data.draw(
            st.lists(
                st.integers(0, shape[mode] - 1), min_size=1, max_size=8
            ),
            label=f"indices{mode}",
        )
        got = engine.slice_batch(mode, indices)
        expected = np.stack([np.take(full, i, axis=mode) for i in indices])
        assert got.shape == expected.shape
        assert np.allclose(got, expected, rtol=0, atol=1e-10)
