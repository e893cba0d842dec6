"""Core recovery: the factored route against the materialized join."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import dense_join_from_subs, join_core
from repro.core.multiway import MWPartition
from repro.core.stitch import dense_join, observed_layout
from repro.exceptions import StitchError
from repro.sampling import PFPartition
from repro.tensor import SparseTensor

from ..generators import materialized_core

SHAPE = (3, 4, 3, 4, 5)


def partition():
    return PFPartition(SHAPE, (4,), (0, 1), (2, 3))


def random_setup(rng, part):
    x1 = rng.standard_normal(part.sub_shape(1))
    x2 = rng.standard_normal(part.sub_shape(2))
    ranks = [2, 2, 2, 2, 2]
    factors = []
    for axis, mode in enumerate(part.join_modes):
        rows = part.shape[mode]
        factors.append(rng.standard_normal((rows, ranks[axis])))
    return x1, x2, factors


def layouts(subs, part):
    return [observed_layout(x, part, w) for w, x in enumerate(subs, 1)]


def assert_matches_materialized(subs, factors, part, kind):
    """``join_core`` equals projecting :func:`dense_join`'s tensor, to
    1e-12 of the summed magnitudes, and counts its stored cells."""
    lays = layouts(subs, part)
    core, nnz = join_core(lays, factors, part, kind)
    joined, _stored, want_nnz = dense_join(lays, part, kind)
    reference = materialized_core(joined, factors)
    # Both routes sum terms |x| |U...| (the join of |x| projected on
    # |U|); that sum bounds their rounding, even where x1 + x2 cancels.
    magnitudes = dense_join([(np.abs(v), o) for v, o in lays], part, kind)
    scale = materialized_core(magnitudes[0], [np.abs(u) for u in factors])
    # Gradual underflow adds an absolute error the relative term cannot
    # see: up to 2**-1074 per rounding of each product term (one per
    # factor, one for the mean), times the factors applied after it.
    growth = np.prod([max(1.0, np.abs(u).max()) for u in factors])
    underflow = (len(factors) + 1) * joined.size * growth * 2.0**-1074
    assert core.shape == reference.shape
    assert np.all(np.abs(core - reference) <= 1e-12 * scale.max() + underflow)
    assert nnz == want_nnz


class TestDenseJoin:
    def test_closed_form_values(self, rng):
        part = partition()
        x1, x2, _ = random_setup(rng, part)
        joined = dense_join_from_subs(x1, x2, part)
        assert joined.shape == part.join_shape
        assert joined[2, 0, 1, 2, 3] == pytest.approx(
            0.5 * (x1[2, 0, 1] + x2[2, 2, 3])
        )

    def test_rejects_pivot_mismatch(self, rng):
        part = partition()
        x1 = rng.standard_normal((5, 3, 4))
        x2 = rng.standard_normal((4, 3, 4))
        with pytest.raises(StitchError):
            dense_join_from_subs(x1, x2, part)


class TestLazyCore:
    """On complete sub-ensembles :func:`join_core` is the closed form
    ``J = (X1 ⊕ X2) / 2`` projected lazily: ``J`` is never built."""

    def test_matches_materialized(self, rng):
        part = partition()
        x1, x2, factors = random_setup(rng, part)
        joined = dense_join_from_subs(x1, x2, part)
        direct = materialized_core(joined, factors)
        lazy, nnz = join_core(layouts((x1, x2), part), factors, part, "join")
        assert np.allclose(direct, lazy)
        assert nnz == joined.size

    def test_multi_pivot(self, rng):
        part = PFPartition((3, 4, 3, 4, 5, 2), (4, 5), (0, 1), (2, 3))
        x1 = rng.standard_normal(part.sub_shape(1))
        x2 = rng.standard_normal(part.sub_shape(2))
        factors = [
            rng.standard_normal((part.shape[m], 2)) for m in part.join_modes
        ]
        joined = dense_join_from_subs(x1, x2, part)
        lazy, _nnz = join_core(layouts((x1, x2), part), factors, part, "join")
        assert np.allclose(materialized_core(joined, factors), lazy)

    def test_rejects_wrong_factor_count(self, rng):
        part = partition()
        x1, x2, factors = random_setup(rng, part)
        with pytest.raises(StitchError):
            join_core(layouts((x1, x2), part), factors[:-1], part, "join")

    def test_rejects_wrong_sub_shape(self, rng):
        part = partition()
        x1, x2, factors = random_setup(rng, part)
        (v1, o1), second = layouts((x1, x2), part)
        with pytest.raises(StitchError, match="layout"):
            join_core([(v1[:-1], o1[:-1]), second], factors, part, "join")


VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-10, 10, allow_nan=False, width=64),
)


@st.composite
def join_cases(draw):
    """A partition with ``k`` = 1 or 2 pivots and ``m`` = 2..4 groups
    (two for a zero-join), sides that are complete or randomly masked,
    and random factors of ranks 1..3."""
    kind = draw(st.sampled_from(["join", "zero"]))
    m = 2 if kind == "zero" else draw(st.integers(2, 4))
    k = draw(st.integers(1, 2))
    n_modes = k + m + draw(st.integers(0, 2))
    shape = tuple(draw(st.integers(1, 3)) for _ in range(n_modes))
    modes = draw(st.permutations(range(n_modes)))
    free = modes[k:]
    cuts = sorted(draw(st.lists(
        st.integers(1, len(free) - 1), min_size=m - 1, max_size=m - 1,
        unique=True,
    )))
    groups = [
        tuple(free[lo:hi]) for lo, hi in zip([0] + cuts, cuts + [len(free)])
    ]
    part = MWPartition(shape, tuple(modes[:k]), tuple(groups))
    subs = []
    for which, sub_shape in enumerate(part.sub_shapes):
        size = int(np.prod(sub_shape))
        values = np.array(draw(
            st.lists(VALUES, min_size=size, max_size=size)
        )).reshape(sub_shape)
        if draw(st.booleans(), label=f"complete{which}"):
            observed = np.ones(sub_shape, dtype=bool)
        else:
            observed = np.array(draw(
                st.lists(st.booleans(), min_size=size, max_size=size)
            )).reshape(sub_shape)
        subs.append(SparseTensor(
            sub_shape, np.argwhere(observed), values[observed]
        ))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = [
        gen.standard_normal((shape[mode], draw(st.integers(1, 3))))
        for mode in part.join_modes
    ]
    return part, subs, factors, kind


def masked(rng, part, masks):
    """Sparse sub-ensembles holding random values where ``masks`` set."""
    subs = []
    for sub_shape, mask in zip(part.sub_shapes, masks):
        values = rng.standard_normal(sub_shape)
        subs.append(SparseTensor(sub_shape, np.argwhere(mask), values[mask]))
    return subs


def random_factors(rng, part, rank=2):
    return [rng.standard_normal((part.shape[m], rank)) for m in part.join_modes]


def subnormal_case():
    """A complete m = 2 join whose only nonzero value is subnormal: the
    two routes differ there by one subnormal ulp, 5e-324."""
    part = MWPartition((2, 1, 1), (0,), ((1,), (2,)))
    values = [[0.0, 0.0], [0.0, float.fromhex("0x0.0000a7c5ac472p-1022")]]
    subs = [
        SparseTensor(shape, np.argwhere(np.ones(shape, dtype=bool)),
                     np.array(v))
        for shape, v in zip(part.sub_shapes, values)
    ]
    factors = [
        np.array([[float.fromhex(h)] for h in row])
        for row in (
            ["0x1.405f9a8b5208ap-1", "0x1.15089d054d75fp+1"],
            ["0x1.e93c9cb33302fp-1"],
            ["-0x1.148a1cb0f83e4p+0"],
        )
    ]
    return part, subs, factors, "join"


class TestJoinCore:
    @given(case=join_cases())
    @example(case=subnormal_case())
    @settings(max_examples=200, deadline=None)
    def test_matches_materialized_join(self, case):
        part, subs, factors, kind = case
        assert_matches_materialized(subs, factors, part, kind)

    @pytest.mark.parametrize("kind", ["join", "zero"])
    @pytest.mark.parametrize("pivots", [(4,), (3, 4)])
    def test_partial_masks_with_empty_pivot_and_free_cell(
        self, rng, kind, pivots
    ):
        """Side 1 observes nothing at pivot cell 0 and side 2 never
        observes its free configuration 0; k = 2 needs the pivot basis
        in C order."""
        groups = [m for m in range(5) if m not in pivots]
        half = len(groups) // 2
        part = MWPartition(
            (2, 3, 4, 3, 2), pivots, (tuple(groups[:half]),
                                      tuple(groups[half:]))
        )
        masks = [rng.random(shape) < 0.6 for shape in part.sub_shapes]
        masks[0].reshape(-1, *part.sub_shapes[0][len(pivots):])[0] = False
        free2 = masks[1].reshape(*masks[1].shape[:len(pivots)], -1)
        free2[..., 0] = False
        subs = masked(rng, part, masks)
        assert_matches_materialized(subs, random_factors(rng, part), part,
                                    kind)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_complete_sides_fill_the_join(self, rng, m):
        part = MWPartition(
            (3, 2, 3, 2, 3), (0,), tuple((mode,) for mode in range(1, m))
            + (tuple(range(m, 5)),),
        )
        subs = [rng.standard_normal(shape) for shape in part.sub_shapes]
        factors = random_factors(rng, part)
        assert_matches_materialized(subs, factors, part, "join")
        _core, nnz = join_core(layouts(subs, part), factors, part, "join")
        assert nnz == int(np.prod(part.join_shape))

    def test_negative_zero_values(self, rng):
        part = partition()
        masks = [rng.random(shape) < 0.5 for shape in part.sub_shapes]
        subs = []
        for sub_shape, mask in zip(part.sub_shapes, masks):
            coords = np.argwhere(mask)
            values = np.where(rng.random(len(coords)) < 0.5, -0.0, 1.5)
            subs.append(SparseTensor(sub_shape, coords, values))
        for kind in ("join", "zero"):
            assert_matches_materialized(
                subs, random_factors(rng, part), part, kind
            )

    def test_rejects_zero_join_of_three(self, rng):
        part = MWPartition((2, 2, 2, 2), (0,), ((1,), (2,), (3,)))
        subs = [rng.standard_normal(shape) for shape in part.sub_shapes]
        with pytest.raises(StitchError, match="two sub-ensembles"):
            join_core(layouts(subs, part), random_factors(rng, part), part,
                      "zero")

    def test_rejects_unknown_kind_and_sub_count(self, rng):
        part = partition()
        x1, x2, factors = random_setup(rng, part)
        lays = layouts((x1, x2), part)
        with pytest.raises(StitchError, match="join kind"):
            join_core(lays, factors, part, "outer")
        with pytest.raises(StitchError, match="sub-ensembles"):
            join_core(lays[:1], factors, part, "join")
