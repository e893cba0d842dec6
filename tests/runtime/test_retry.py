"""RetryPolicy semantics and their surfacing through the scheduler."""

import pytest

from repro.exceptions import (
    RetryExhaustedError,
    TaskFailedError,
    TaskGraphError,
)
from repro.observability import Tracer, use_tracer
from repro.runtime import RetryPolicy, Runtime


class TestPolicy:
    def test_delay_schedule_bounded(self):
        policy = RetryPolicy(
            max_attempts=5,
            backoff_seconds=0.1,
            max_backoff_seconds=0.25,
        )
        assert policy.delay(1) == 0.0
        assert policy.delay(2) == pytest.approx(0.1)
        assert policy.delay(3) == pytest.approx(0.2)
        assert policy.delay(4) == pytest.approx(0.25)  # clamped

    def test_should_retry_honours_attempt_budget(self):
        policy = RetryPolicy(max_attempts=2)
        error = ValueError("x")
        assert policy.should_retry(1, error)
        assert not policy.should_retry(2, error)

    def test_never_retries_non_retryable(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.should_retry(1, MemoryError())

    def test_validation(self):
        with pytest.raises(TaskGraphError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(TaskGraphError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(TaskGraphError):
            RetryPolicy(jitter=-0.1)


class TestJitter:
    """Decorrelation jitter: deterministic per (key, attempt),
    decorrelated across keys, and only ever shortening delays."""

    POLICY = RetryPolicy(
        max_attempts=6,
        backoff_seconds=0.1,
        max_backoff_seconds=10.0,
        jitter=0.5,
    )

    def test_same_key_replays_exactly(self):
        first = [self.POLICY.delay(a, key="task-a") for a in range(2, 6)]
        second = [self.POLICY.delay(a, key="task-a") for a in range(2, 6)]
        assert first == second

    def test_distinct_keys_decorrelate(self):
        delays = {
            key: self.POLICY.delay(2, key=key)
            for key in ("worker-0", "worker-1", "worker-2", "worker-3")
        }
        assert len(set(delays.values())) == len(delays)

    def test_jitter_only_shortens(self):
        plain = RetryPolicy(
            max_attempts=6,
            backoff_seconds=0.1,
            max_backoff_seconds=10.0,
        )
        for attempt in range(2, 6):
            jittered = self.POLICY.delay(attempt, key="k")
            base = plain.delay(attempt)
            assert 0.0 < jittered <= base
            # jitter=0.5 means at most half the delay is shaved off
            assert jittered >= base * 0.5

    def test_zero_jitter_is_exact_geometric(self):
        policy = RetryPolicy(
            max_attempts=4, backoff_seconds=0.1, jitter=0.0
        )
        assert policy.delay(2, key="anything") == pytest.approx(0.1)
        assert policy.delay(3, key="anything") == pytest.approx(0.2)


class TestSchedulerRetries:
    def test_exhaustion_raises_with_task_name(self):
        attempts = []

        def flaky():
            attempts.append(1)
            raise ValueError("transient-ish")

        runtime = Runtime()
        with pytest.raises(RetryExhaustedError) as excinfo:
            runtime.call(
                "ingest-shard-7",
                flaky,
                retry=RetryPolicy(max_attempts=3, backoff_seconds=0.001),
            )
        assert excinfo.value.task_name == "ingest-shard-7"
        assert excinfo.value.attempts == 3
        assert "ingest-shard-7" in str(excinfo.value)
        assert len(attempts) == 3

    def test_success_after_transient_failures(self):
        state = {"calls": 0}

        def eventually():
            state["calls"] += 1
            if state["calls"] < 3:
                raise OSError("flake")
            return "done"

        result = Runtime().call(
            "eventually",
            eventually,
            retry=RetryPolicy(max_attempts=5, backoff_seconds=0.001),
        )
        assert result == "done" and state["calls"] == 3

    def test_single_attempt_failure_is_task_failed(self):
        def boom():
            raise ValueError("broken")

        with pytest.raises(TaskFailedError) as excinfo:
            Runtime().call("boom", boom)
        assert excinfo.value.task_name == "boom"

    def test_metrics_record_attempts(self):
        state = {"calls": 0}

        def eventually():
            state["calls"] += 1
            if state["calls"] < 2:
                raise OSError("flake")
            return 1

        runtime = Runtime()
        runtime.call(
            "counted",
            eventually,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.001),
        )
        assert runtime.report.task("counted").attempts == 2

    def test_each_attempt_is_a_traced_span(self):
        state = {"calls": 0}

        def fails_once():
            state["calls"] += 1
            if state["calls"] < 2:
                raise OSError("flake")
            return 1

        with use_tracer(Tracer()) as tracer:
            Runtime().call(
                "flaky", fails_once, retry=RetryPolicy(max_attempts=2)
            )
        attempts = [
            (s.attrs["attempts"], s.error)
            for s in tracer.iter_spans() if s.name == "task:flaky"
        ]
        assert attempts == [(1, "OSError"), (2, None)]
