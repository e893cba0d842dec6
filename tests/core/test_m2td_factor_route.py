"""M2TD's factor route: LAPACK SVDs of dense unfoldings.

Every M2TD sub-ensemble matricization has ``min(shape) <= 32``, where
a CSR matricization is densified before LAPACK anyway.  The property
below pins that the dense unfoldings of the one stitch layout give
exactly the factors of that CSR route, with stored ``0.0``/``-0.0``
cells (CSR densification reads ``-0.0`` as ``0.0``), and that no
sparse sub-ensemble is densified through ``tensor.dense_unfolds``.
"""

import numpy as np
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.m2td import m2td_decompose, map_ranks_to_join
from repro.core.row_select import average_factors, row_select
from repro.observability.metrics import use_metrics
from repro.sampling import PFPartition
from repro.tensor import SparseTensor
from repro.tensor.svd import truncated_svd

VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-10, 10, allow_nan=False, width=64),
)


@st.composite
def factor_cases(draw):
    n_modes = draw(st.integers(3, 5))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(n_modes))
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
        if draw(st.booleans(), label=f"complete{which}"):
            flat = list(range(size))
        else:
            flat = draw(st.lists(st.integers(0, size - 1), unique=True))
        values = draw(
            st.lists(VALUES, min_size=len(flat), max_size=len(flat))
        )
        coords = np.array(
            [np.unravel_index(i, sub_shape) for i in flat], dtype=np.int64
        ).reshape(len(flat), len(sub_shape))
        subs.append(SparseTensor(sub_shape, coords, values))
    ranks = [draw(st.integers(1, 3)) for _ in range(n_modes)]
    variant = draw(st.sampled_from(["avg", "concat", "select"]))
    kind = draw(st.sampled_from(["join", "zero"]))
    return part, subs[0], subs[1], ranks, variant, kind


def csr_factor(matrix, rank):
    """``(U, s)`` of a CSR matricization via ``truncated_svd``."""
    rank = max(1, min(rank, min(matrix.shape)))
    u, s, _vt = truncated_svd(matrix, rank)
    return u, s


def reference_factors(x1, x2, part, ranks, variant):
    """Join-order factors computed from CSR matricizations."""
    join_ranks = map_ranks_to_join(part, ranks)
    k, f1 = part.k, len(part.s1_free)
    factors = []
    for axis in range(k):
        m1, m2 = x1.unfold_csr(axis), x2.unfold_csr(axis)
        if variant == "concat":
            combined = sps.hstack([m1, m2], format="csr")
            factors.append(csr_factor(combined, join_ranks[axis])[0])
            continue
        u1, s1 = csr_factor(m1, join_ranks[axis])
        u2, s2 = csr_factor(m2, join_ranks[axis])
        width = min(u1.shape[1], u2.shape[1])
        u1, u2, s1, s2 = u1[:, :width], u2[:, :width], s1[:width], s2[:width]
        factors.append(
            average_factors(u1, u2) if variant == "avg"
            else row_select(u1, u2, s1, s2)
        )
    for offset in range(f1):
        axis = k + offset
        factors.append(csr_factor(x1.unfold_csr(axis), join_ranks[axis])[0])
    for offset in range(len(part.s2_free)):
        axis = k + f1 + offset
        factors.append(
            csr_factor(x2.unfold_csr(k + offset), join_ranks[axis])[0]
        )
    return factors


class TestDenseFactorRoute:
    @given(case=factor_cases())
    @settings(max_examples=150, deadline=None)
    def test_factors_equal_the_csr_route_without_densifying(self, case):
        part, x1, x2, ranks, variant, kind = case
        with use_metrics() as registry:
            result = m2td_decompose(
                x1, x2, part, ranks, variant=variant, join_kind=kind
            )
        assert registry.counter("tensor.dense_unfolds").value == 0
        want = reference_factors(x1, x2, part, ranks, variant)
        assert len(result.tucker.factors) == len(want)
        for got, expected in zip(result.tucker.factors, want):
            assert np.array_equal(got, expected)
