"""Retry policies: bounded exponential backoff with optional jitter.

Transient failures (a flaky subprocess, an I/O hiccup in the on-disk
cache, an injected fault in a D-M2TD phase) should not kill a
multi-hour study graph.  A :class:`RetryPolicy` says how many times a
task may be attempted and how long to sleep between attempts.  It is
the library's one task-retry layer; the worker supervisor reuses only
its delay schedule to space out respawns.

Exhaustion is surfaced as
:class:`repro.exceptions.RetryExhaustedError`, which names the failing
task — the scheduler attaches the task name, this module only decides
*whether* another attempt is allowed and how long to wait.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple, Type

from ..exceptions import TaskGraphError

#: Exception classes that never trigger a retry: programming errors
#: retry cannot fix.
NON_RETRYABLE: Tuple[Type[BaseException], ...] = (
    KeyboardInterrupt,
    SystemExit,
    MemoryError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How a task responds to failure.

    Any :class:`Exception` outside :data:`NON_RETRYABLE` counts as
    transient.

    Attributes
    ----------
    max_attempts:
        Total attempts (1 = no retries).
    backoff_seconds:
        Sleep before the second attempt; doubles with each further
        attempt.
    max_backoff_seconds:
        Upper bound on any single sleep.
    jitter:
        Decorrelation jitter as a fraction of each delay, in [0, 1].
        When many tasks (or many respawning workers) fail at the same
        instant, a pure geometric backoff retries them in lockstep,
        producing synchronized thundering-herd retry waves.  With
        jitter, the sleep before attempt ``a`` for key ``k`` becomes
        ``delay * (1 - jitter * u)`` where ``u`` is a *deterministic*
        uniform draw hashed from ``(k, a)`` — different keys
        decorrelate, while the same (key, attempt) always sleeps the
        same amount, so tests replay exactly.  Jitter only ever
        shortens a delay, so ``max_backoff_seconds`` remains a hard
        ceiling.
    """

    max_attempts: int = 1
    backoff_seconds: float = 0.05
    max_backoff_seconds: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise TaskGraphError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise TaskGraphError("backoff durations must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise TaskGraphError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def _raw_delay(self, attempt: int) -> float:
        """The geometric sequence clamped per sleep (no jitter)."""
        if attempt <= 1:
            return 0.0
        raw = self.backoff_seconds * 2.0 ** (attempt - 2)
        return float(min(raw, self.max_backoff_seconds))

    @staticmethod
    def _jitter_draw(attempt: int, key: str) -> float:
        """Deterministic uniform in [0, 1) from (key, attempt)."""
        # The leading "0:" is the hash's fixed seed token; it keeps
        # every draw (and so every respawn delay) what it has been.
        token = f"0:{key}:{attempt}".encode()
        return int.from_bytes(
            hashlib.sha256(token).digest()[:8], "big"
        ) / float(1 << 64)

    def delay(self, attempt: int, key: str = "") -> float:
        """Sleep before attempt ``attempt`` (1-based; attempt 1 never
        sleeps).  ``key`` feeds the decorrelation jitter — pass a
        stable per-task or per-worker id so simultaneous failures
        spread their retries instead of hammering back in lockstep."""
        base = self._raw_delay(attempt)
        if self.jitter <= 0.0 or base <= 0.0:
            return base
        return base * (1.0 - self.jitter * self._jitter_draw(attempt, key))

    def should_retry(self, attempt: int, error: BaseException) -> bool:
        """May the scheduler try again after ``attempt`` failed?"""
        if attempt >= self.max_attempts:
            return False
        return isinstance(error, Exception) and not isinstance(
            error, NON_RETRYABLE
        )


#: The scheduler's default: one attempt — retries are opt-in because
#: most tasks here are deterministic numerics where a failure means a
#: bug, not bad luck.
NO_RETRY = RetryPolicy(max_attempts=1)
