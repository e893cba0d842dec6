"""Property suite for the confirm-round budget allocator.

The allocator's contract (`repro.campaigns.allocator.allocate`) is
exactly what campaign budget safety rests on, so each clause is pinned
by a hypothesis property rather than examples:

* every allocation is a non-negative integer;
* the total never exceeds the remaining budget;
* without capacity caps the total equals the (clamped) round batch;
* allocations are monotone in error — more mismatch never means
  fewer cells.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import allocate
from repro.exceptions import CampaignError

errors_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=32,
).map(lambda xs: np.array(xs))


@settings(max_examples=200, deadline=None)
@given(errors=errors_strategy, batch=st.integers(0, 500))
def test_nonnegative_integers(errors, batch):
    shares = allocate(errors, batch)
    assert shares.dtype.kind == "i"
    assert (shares >= 0).all()


@settings(max_examples=200, deadline=None)
@given(
    errors=errors_strategy,
    batch=st.integers(0, 500),
    remaining=st.integers(0, 500),
)
def test_never_exceeds_remaining_budget(errors, batch, remaining):
    shares = allocate(errors, batch, remaining_budget=remaining)
    assert int(shares.sum()) <= remaining


@settings(max_examples=200, deadline=None)
@given(errors=errors_strategy, batch=st.integers(0, 500))
def test_sums_exactly_to_batch(errors, batch):
    """Without caps every cell of the batch is handed out."""
    shares = allocate(errors, batch)
    assert int(shares.sum()) == batch


@settings(max_examples=200, deadline=None)
@given(
    errors=errors_strategy,
    batch=st.integers(0, 500),
    remaining=st.integers(0, 500),
)
def test_sums_to_clamped_batch(errors, batch, remaining):
    shares = allocate(errors, batch, remaining_budget=remaining)
    assert int(shares.sum()) == min(batch, remaining)


@settings(max_examples=200, deadline=None)
@given(errors=errors_strategy, batch=st.integers(0, 500))
def test_monotone_in_error(errors, batch):
    """A candidate with higher error never gets fewer cells."""
    shares = allocate(errors, batch)
    for i in range(len(errors)):
        for j in range(len(errors)):
            if errors[i] < errors[j]:
                assert shares[i] <= shares[j], (
                    f"error {errors[i]} got {shares[i]} cells but "
                    f"error {errors[j]} got {shares[j]}"
                )


@settings(max_examples=200, deadline=None)
@given(
    errors=errors_strategy,
    batch=st.integers(0, 500),
    cap=st.integers(0, 40),
)
def test_respects_uniform_capacities(errors, batch, cap):
    caps = np.full(errors.shape[0], cap, dtype=int)
    shares = allocate(errors, batch, capacities=caps)
    assert (shares <= caps).all()
    assert int(shares.sum()) == min(batch, int(caps.sum()))


@settings(max_examples=200, deadline=None)
@given(
    errors=errors_strategy,
    batch=st.integers(0, 500),
    seed=st.integers(0, 2**31 - 1),
)
def test_respects_ragged_capacities(errors, batch, seed):
    caps = np.random.default_rng(seed).integers(
        0, 20, size=errors.shape[0]
    )
    shares = allocate(errors, batch, capacities=caps)
    assert (shares <= caps).all()
    assert int(shares.sum()) == min(batch, int(caps.sum()))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 32), batch=st.integers(0, 500))
def test_equal_errors_split_evenly(n, batch):
    """All-equal (including all-zero) errors degrade to a fair split:
    no candidate is ever more than one cell ahead of another."""
    for value in (0.0, 1.0):
        shares = allocate(np.full(n, value), batch)
        assert int(shares.sum()) == batch
        assert int(shares.max()) - int(shares.min()) <= 1


@settings(max_examples=100, deadline=None)
@given(errors=errors_strategy, batch=st.integers(0, 500))
def test_deterministic(errors, batch):
    first = allocate(errors, batch)
    second = allocate(errors, batch)
    assert (first == second).all()


class TestValidation:
    def test_rejects_negative_errors(self):
        with pytest.raises(CampaignError):
            allocate([1.0, -0.5], 10)

    def test_rejects_nan_errors(self):
        with pytest.raises(CampaignError):
            allocate([1.0, float("nan")], 10)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_rejects_infinite_errors(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CampaignError, match="finite"):
                allocate([1.0, bad], 10)

    @pytest.mark.parametrize(
        "errors, want",
        [
            ([1e308, 1e308, 1.0], [5, 5, 0]),  # the weight sum overflows
            ([1e308, 1.0], [10, 0]),           # a quota overflows
            ([1.5e308, 1e308, 1e308, 1e-300], [4, 3, 3, 0]),
        ],
    )
    def test_near_max_errors_split_the_batch(self, errors, want):
        """Finite errors near the float maximum still allocate exactly
        the batch, monotone in error, without a RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shares = allocate(errors, 10)
        assert shares.tolist() == want

    def test_rejects_negative_batch(self):
        with pytest.raises(CampaignError):
            allocate([1.0], -1)

    def test_rejects_matrix_errors(self):
        with pytest.raises(CampaignError):
            allocate(np.ones((2, 2)), 10)

    def test_rejects_mismatched_capacities(self):
        with pytest.raises(CampaignError):
            allocate([1.0, 2.0], 10, capacities=[1])

    def test_rejects_negative_capacities(self):
        with pytest.raises(CampaignError):
            allocate([1.0, 2.0], 10, capacities=[1, -1])

    def test_empty_errors_allocate_nothing(self):
        shares = allocate([], 10)
        assert shares.shape == (0,)
