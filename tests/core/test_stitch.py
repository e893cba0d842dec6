"""JE-stitching: join and zero-join semantics (paper Section V-C)."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import join_tensor, to_original_order, zero_join_tensor
from repro.core.m2td import m2td_decompose
from repro.core.stitch import (
    dense_join,
    dense_to_original_order,
    observed_layout,
)
from repro.core.join_tensor import dense_join_from_subs
from repro.exceptions import StitchError
from repro.observability import Tracer, use_tracer
from repro.observability.metrics import use_metrics
from repro.sampling import PFPartition
from repro.tensor import SparseTensor

SHAPE = (3, 3, 3, 3, 3)


def partition():
    return PFPartition(SHAPE, (4,), (0, 1), (2, 3))


def full_subs(rng, part):
    x1 = SparseTensor.from_dense(
        rng.standard_normal(part.sub_shape(1)) + 3.0, keep_zeros=True
    )
    x2 = SparseTensor.from_dense(
        rng.standard_normal(part.sub_shape(2)) + 3.0, keep_zeros=True
    )
    return x1, x2


class TestJoin:
    def test_matches_dense_closed_form(self, rng):
        part = partition()
        x1, x2 = full_subs(rng, part)
        joined = join_tensor(x1, x2, part)
        dense = dense_join_from_subs(x1.to_dense(), x2.to_dense(), part)
        assert np.allclose(joined.to_dense(), dense)

    def test_average_value(self):
        part = partition()
        # one cell each, same pivot value 2
        x1 = SparseTensor(part.sub_shape(1), [[2, 0, 1]], [4.0])
        x2 = SparseTensor(part.sub_shape(2), [[2, 1, 2]], [10.0])
        joined = join_tensor(x1, x2, part)
        assert joined.nnz == 1
        # join order (pivot, s1, s2): (2, 0, 1, 1, 2)
        assert joined.get((2, 0, 1, 1, 2)) == pytest.approx(7.0)

    def test_no_pivot_match_yields_empty(self):
        part = partition()
        x1 = SparseTensor(part.sub_shape(1), [[0, 0, 0]], [1.0])
        x2 = SparseTensor(part.sub_shape(2), [[1, 0, 0]], [2.0])
        assert join_tensor(x1, x2, part).nnz == 0

    def test_entry_count_is_p_e1_e2(self, rng):
        part = partition()
        x1, x2 = full_subs(rng, part)
        joined = join_tensor(x1, x2, part)
        assert joined.nnz == 3 * 9 * 9

    def test_rejects_wrong_sub_shape(self, rng):
        part = partition()
        bad = SparseTensor((2, 2, 2), [[0, 0, 0]], [1.0])
        _x1, x2 = full_subs(rng, part)
        with pytest.raises(StitchError):
            join_tensor(bad, x2, part)


class TestZeroJoin:
    def test_reduces_to_join_on_complete_subs(self, rng):
        part = partition()
        x1, x2 = full_subs(rng, part)
        joined = join_tensor(x1, x2, part)
        zero_joined = zero_join_tensor(x1, x2, part)
        assert joined == zero_joined

    def test_one_sided_contributes_half(self):
        part = partition()
        # x1 observed at pivot 0; x2 observed only at pivot 1.
        x1 = SparseTensor(part.sub_shape(1), [[0, 0, 0]], [4.0])
        x2 = SparseTensor(part.sub_shape(2), [[1, 2, 2]], [6.0])
        zero_joined = zero_join_tensor(x1, x2, part)
        # At pivot 0: x1 pairs with candidate (2,2) as (4+0)/2.
        assert zero_joined.get((0, 0, 0, 2, 2)) == pytest.approx(2.0)
        # At pivot 1: x2 pairs with candidate (0,0) as (0+6)/2.
        assert zero_joined.get((1, 0, 0, 2, 2)) == pytest.approx(3.0)
        assert zero_joined.nnz == 2

    def test_matched_pair_still_averages(self):
        part = partition()
        x1 = SparseTensor(part.sub_shape(1), [[0, 1, 1]], [4.0])
        x2 = SparseTensor(part.sub_shape(2), [[0, 2, 0]], [8.0])
        zero_joined = zero_join_tensor(x1, x2, part)
        assert zero_joined.get((0, 1, 1, 2, 0)) == pytest.approx(6.0)
        assert zero_joined.nnz == 1

    def test_denser_than_join_under_random_sampling(self, rng):
        part = partition()
        # Sparse random sub-ensembles: few pivot matches.
        def random_sub(which, seed):
            shape = part.sub_shape(which)
            gen = np.random.default_rng(seed)
            size = int(np.prod(shape))
            flat = gen.choice(size, size=6, replace=False)
            coords = np.stack(np.unravel_index(flat, shape), axis=1)
            return SparseTensor(shape, coords, gen.standard_normal(6))

        x1 = random_sub(1, 1)
        x2 = random_sub(2, 2)
        assert (
            zero_join_tensor(x1, x2, part).nnz
            >= join_tensor(x1, x2, part).nnz
        )


class TestOrderRestoration:
    def test_sparse_transpose_matches_dense(self, rng):
        part = partition()
        x1, x2 = full_subs(rng, part)
        joined = join_tensor(x1, x2, part)
        restored = to_original_order(joined, part)
        dense = dense_to_original_order(joined.to_dense(), part)
        assert np.allclose(restored.to_dense(), dense)

    def test_restored_join_approximates_separable_truth(self, rng):
        """If the truth is exactly pivot-separable, the restored join
        reproduces it exactly."""
        part = partition()
        a = rng.standard_normal((3, 3, 3))  # (pivot, s1 modes)
        b = rng.standard_normal((3, 3, 3))  # (pivot, s2 modes)
        # truth[phi1, m1, phi2, m2, t] = (a[t, phi1, m1] + b[t, phi2, m2]) / 2
        truth = 0.5 * (
            np.transpose(a, (1, 2, 0))[:, :, None, None, :]
            + np.transpose(b, (1, 2, 0))[None, None, :, :, :]
        )
        x1 = SparseTensor.from_dense(
            part.extract_sub_tensor(1, truth) * 0 + a, keep_zeros=True
        )
        x2 = SparseTensor.from_dense(b, keep_zeros=True)
        joined = to_original_order(join_tensor(x1, x2, part), part)
        assert np.allclose(joined.to_dense(), truth)


# ----------------------------------------------------------------------
# bit identity of the broadcast stitch against a per-cell reference
# ----------------------------------------------------------------------
def reference_join(x1, x2, part, kind):
    """Per-cell loop straight from Section V-C: ``(dense, stored)``.

    Join: every pair of observations sharing a pivot averages.
    Zero-join: an ``X1`` observation pairs with every candidate ``b``
    (a free configuration ``X2`` observed at any pivot) as
    ``(x1 + x2) / 2`` with an unobserved ``x2`` read as ``0.0``; an
    ``X2`` observation whose ``(p, a)`` ``X1`` left unobserved pairs
    with every candidate ``a`` as ``x2 / 2``.
    """
    def cells(x, which):
        if isinstance(x, SparseTensor):
            return dict(x.items())
        shape = part.sub_shape(which)
        return {i: x[i] for i in itertools.product(*map(range, shape))}

    k = part.k
    obs1, obs2 = cells(x1, 1), cells(x2, 2)
    cand1 = {cell[k:] for cell in obs1}
    cand2 = {cell[k:] for cell in obs2}
    dense = np.zeros(part.join_shape)
    stored = np.zeros(part.join_shape, dtype=bool)
    for (cell1, v1), (cell2, v2) in itertools.product(
        obs1.items(), obs2.items()
    ):
        if cell1[:k] == cell2[:k]:
            dense[cell1 + cell2[k:]] = 0.5 * (v1 + v2)
            stored[cell1 + cell2[k:]] = True
    if kind == "zero":
        for cell1, v1 in obs1.items():
            for b in cand2:
                if cell1[:k] + b not in obs2:
                    dense[cell1 + b] = 0.5 * (v1 + 0.0)
                    stored[cell1 + b] = True
        for cell2, v2 in obs2.items():
            for a in cand1:
                if cell2[:k] + a not in obs1:
                    dense[cell2[:k] + a + cell2[k:]] = 0.5 * v2
                    stored[cell2[:k] + a + cell2[k:]] = True
    return dense, stored


def stitch(x1, x2, part, kind):
    """:func:`dense_join` of two sub-ensembles' layouts."""
    return dense_join(
        [observed_layout(x1, part, 1), observed_layout(x2, part, 2)],
        part,
        kind,
    )


def sha(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-10, 10, allow_nan=False, width=64),
)


@st.composite
def stitch_cases(draw):
    n_modes = draw(st.integers(3, 5))
    shape = tuple(draw(st.integers(1, 3)) for _ in range(n_modes))
    modes = draw(st.permutations(range(n_modes)))
    k = draw(st.integers(1, min(2, n_modes - 2)))
    f1 = draw(st.integers(1, n_modes - k - 1))
    part = PFPartition(
        shape, modes[:k], modes[k : k + f1], modes[k + f1 :]
    )
    subs = []
    for which in (1, 2):
        sub_shape = part.sub_shape(which)
        size = int(np.prod(sub_shape))
        if draw(st.booleans(), label=f"dense{which}"):
            values = draw(st.lists(VALUES, min_size=size, max_size=size))
            subs.append(np.array(values).reshape(sub_shape))
            continue
        flat = draw(st.lists(st.integers(0, size - 1), unique=True))
        values = draw(
            st.lists(VALUES, min_size=len(flat), max_size=len(flat))
        )
        coords = np.array(
            [np.unravel_index(i, sub_shape) for i in flat], dtype=np.int64
        ).reshape(len(flat), len(sub_shape))
        subs.append(SparseTensor(sub_shape, coords, values))
    kind = draw(st.sampled_from(["join", "zero"]))
    return part, subs[0], subs[1], kind


class TestBroadcastStitch:
    @given(case=stitch_cases())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_per_cell_reference(self, case):
        part, x1, x2, kind = case
        dense, stored, nnz = stitch(x1, x2, part, kind)
        want_dense, want_stored = reference_join(x1, x2, part, kind)
        assert sha(dense) == sha(want_dense)
        assert sha(stored) == sha(want_stored)
        assert nnz == int(want_stored.sum())
        view = (join_tensor if kind == "join" else zero_join_tensor)(
            x1, x2, part
        )
        assert view.nnz == nnz
        assert sha(view.to_dense()) == sha(dense)

    def test_one_sided_negative_zero_keeps_its_sign(self):
        part = partition()
        x1 = SparseTensor(part.sub_shape(1), [[0, 0, 0]], [1.0])
        x2 = SparseTensor(
            part.sub_shape(2), [[0, 1, 1], [1, 2, 2]], [4.0, -0.0]
        )
        dense, _stored, _nnz = stitch(x1, x2, part, "zero")
        # X2 alone at pivot 1: -0.0 / 2, not (0.0 + -0.0) / 2
        assert np.signbit(dense[1, 0, 0, 2, 2])

    def test_duplicate_input_cells_average_before_the_stitch(self):
        """A stitch never sees duplicate cells: ``SparseTensor``
        averages repeated coordinates on construction, so the join of
        a duplicated input equals the join of its averaged twin."""
        part = partition()
        x1 = SparseTensor(
            part.sub_shape(1), [[1, 2, 0], [0, 0, 1], [1, 2, 0]],
            [1.0, 5.0, 4.0],
        )
        twin = SparseTensor(
            part.sub_shape(1), [[0, 0, 1], [1, 2, 0]], [5.0, 2.5]
        )
        assert x1.nnz == 2 and x1 == twin
        x2 = SparseTensor(
            part.sub_shape(2), [[1, 0, 0], [0, 1, 1]], [3.0, -1.0]
        )
        for kind in ("join", "zero"):
            got = stitch(x1, x2, part, kind)
            want = stitch(twin, x2, part, kind)
            assert sha(got[0]) == sha(want[0])
            assert sha(got[1]) == sha(want[1])
            assert got[2] == want[2]

    @pytest.mark.parametrize("kind", ["join", "zero"])
    def test_one_span_and_count_per_stitch_and_no_densify(self, kind):
        """``m2td_decompose`` stitches once (one ``m2td-stitch`` span,
        one ``stitch.joins``) and opens no dense-join span; the dense
        stitch builds ``J`` without ``to_dense``; the sparse view opens
        its span once, with the engine's ``join_nnz``."""
        part = partition()
        gen = np.random.default_rng(5)
        subs = []
        for which in (1, 2):
            shape = part.sub_shape(which)
            flat = gen.choice(27, size=12, replace=False)
            coords = np.stack(np.unravel_index(flat, shape), axis=1)
            subs.append(SparseTensor(shape, coords, gen.random(12) + 1.0))
        name = "join-tensor" if kind == "join" else "zero-join-tensor"
        with use_metrics() as registry, use_tracer(Tracer()) as tracer:
            result = m2td_decompose(*subs, part, [2] * 5, join_kind=kind)
        names = [s.name for s in tracer.iter_spans()]
        assert name not in names
        (span,) = [s for s in tracer.iter_spans() if s.name == "m2td-stitch"]
        assert span.attrs["join_nnz"] == result.join_nnz > 0
        assert registry.counter("stitch.joins").value == 1
        assert registry.counter("stitch.join_nnz").value == result.join_nnz
        with use_metrics() as registry:
            stitch(*subs, part, kind)
        assert registry.counter("tensor.dense_unfolds").value == 0
        view = join_tensor if kind == "join" else zero_join_tensor
        with use_metrics() as registry, use_tracer(Tracer()) as tracer:
            joined = view(*subs, part)
        assert [s.name for s in tracer.iter_spans()] == [name]
        assert registry.counter("stitch.joins").value == 1
        assert registry.counter("stitch.join_nnz").value == joined.nnz
        assert joined.nnz == result.join_nnz

    def test_rejects_unknown_kind(self, rng):
        part = partition()
        x1, x2 = full_subs(rng, part)
        with pytest.raises(StitchError, match="join kind"):
            stitch(x1, x2, part, "outer")
