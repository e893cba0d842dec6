"""Property-based tests for :class:`repro.runtime.retry.RetryPolicy`.

The backoff schedule has two contracts the scheduler leans on:

* the per-attempt delay sequence is non-decreasing (geometric growth)
  until the ``max_backoff_seconds`` plateau, and never exceeds it;
* ``should_retry`` never authorises an attempt beyond ``max_attempts``.

Example-based tests pin a handful of schedules; these properties pin
every schedule Hypothesis can dream up.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.runtime.retry import RetryPolicy  # noqa: E402

policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=12),
    backoff_seconds=st.floats(
        min_value=0.0, max_value=10.0, allow_nan=False
    ),
    max_backoff_seconds=st.floats(
        min_value=0.0, max_value=30.0, allow_nan=False
    ),
)


@given(policy=policies)
@settings(max_examples=200)
def test_delays_respect_per_sleep_cap(policy):
    for attempt in range(1, policy.max_attempts + 1):
        delay = policy.delay(attempt)
        assert delay >= 0.0
        assert delay <= policy.max_backoff_seconds + 1e-12


@given(policy=policies)
@settings(max_examples=200)
def test_raw_backoff_sequence_is_non_decreasing(policy):
    raw = [policy._raw_delay(a) for a in range(2, policy.max_attempts + 1)]
    assert all(b >= a - 1e-12 for a, b in zip(raw, raw[1:]))


@given(policy=policies, attempt=st.integers(min_value=1, max_value=20))
@settings(max_examples=200)
def test_should_retry_never_exceeds_max_attempts(policy, attempt):
    error = ValueError("transient")
    if attempt >= policy.max_attempts:
        assert not policy.should_retry(attempt, error)
    else:
        assert policy.should_retry(attempt, error)


@given(policy=policies)
@settings(max_examples=100)
def test_first_attempt_never_sleeps(policy):
    assert policy.delay(1) == 0.0
