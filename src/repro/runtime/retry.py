"""Retry policies: bounded exponential backoff plus per-task timeouts.

Transient failures (a flaky subprocess, an I/O hiccup in the on-disk
cache) should not kill a multi-hour study graph.  A
:class:`RetryPolicy` says how many times a task may be attempted, how
long to sleep between attempts, and how long a single attempt may run
before it is declared timed out.

Exhaustion is surfaced as
:class:`repro.exceptions.RetryExhaustedError`, which names the failing
task — the scheduler attaches the task name, this module only decides
*whether* another attempt is allowed and how long to wait.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple, Type

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

    Attributes
    ----------
    max_attempts:
        Total attempts (1 = no retries).
    backoff_seconds:
        Sleep before the second attempt; doubles by ``backoff_factor``
        each further attempt.
    backoff_factor:
        Multiplier applied per attempt.
    max_backoff_seconds:
        Upper bound on any single sleep.
    timeout_seconds:
        Per-attempt wall-clock budget (``None`` = unbounded).  Enforced
        pre-emptively for the thread executor via future timeouts;
        the inline executor can only detect the overrun after the call
        returns.
    backoff_budget_seconds:
        Cap on the *cumulative* sleep across every retry of one task
        (``None`` = unbounded).  Later delays are clipped so the total
        backoff never exceeds the budget — a 10-attempt policy cannot
        stall a graph for longer than its declared budget, no matter
        how the geometric sequence grows.
    jitter:
        Decorrelation jitter as a fraction of each delay, in [0, 1].
        When many tasks (or many respawning workers) fail at the same
        instant, a pure geometric backoff retries them in lockstep,
        producing synchronized thundering-herd retry waves.  With
        jitter, the sleep before attempt ``a`` for key ``k`` becomes
        ``delay * (1 - jitter * u)`` where ``u`` is a *deterministic*
        uniform draw hashed from ``(jitter_seed, k, a)`` — different
        keys decorrelate, while the same (seed, key, attempt) always
        sleeps the same amount, so tests replay exactly.  Jitter only
        ever shortens a delay, so ``max_backoff_seconds`` and the
        backoff budget remain hard ceilings.
    jitter_seed:
        Seed feeding the jitter hash.
    retry_on:
        Exception classes that count as transient.  Anything else
        (and everything in :data:`NON_RETRYABLE`) fails immediately.
    """

    max_attempts: int = 1
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 2.0
    timeout_seconds: Optional[float] = None
    backoff_budget_seconds: Optional[float] = None
    jitter: float = 0.0
    jitter_seed: int = 0
    retry_on: Tuple[Type[BaseException], ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise TaskGraphError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise TaskGraphError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise TaskGraphError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise TaskGraphError(
                f"timeout_seconds must be > 0, got {self.timeout_seconds}"
            )
        if (
            self.backoff_budget_seconds is not None
            and self.backoff_budget_seconds < 0
        ):
            raise TaskGraphError(
                "backoff_budget_seconds must be >= 0, got "
                f"{self.backoff_budget_seconds}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise TaskGraphError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def _raw_delay(self, attempt: int) -> float:
        """The geometric sequence clamped per-sleep (budget ignored)."""
        if attempt <= 1:
            return 0.0
        raw = self.backoff_seconds * self.backoff_factor ** (attempt - 2)
        return float(min(raw, self.max_backoff_seconds))

    def _jitter_draw(self, attempt: int, key: str) -> float:
        """Deterministic uniform in [0, 1) from (seed, key, attempt)."""
        token = f"{self.jitter_seed}:{key}:{attempt}".encode()
        return int.from_bytes(
            hashlib.sha256(token).digest()[:8], "big"
        ) / float(1 << 64)

    def delay(self, attempt: int, key: str = "") -> float:
        """Sleep before attempt ``attempt`` (1-based; attempt 1 never
        sleeps).  With a backoff budget, the delay is additionally
        clipped so the cumulative sleep through this attempt stays
        within ``backoff_budget_seconds``.  ``key`` feeds the
        decorrelation jitter — pass a stable per-task or per-worker id
        so simultaneous failures spread their retries instead of
        hammering back in lockstep."""
        if attempt <= 1:
            return 0.0
        if self.backoff_budget_seconds is None:
            base = self._raw_delay(attempt)
        else:
            spent = self.total_backoff(attempt - 1)
            remaining = max(0.0, self.backoff_budget_seconds - spent)
            base = float(min(self._raw_delay(attempt), remaining))
        if self.jitter <= 0.0 or base <= 0.0:
            return base
        return base * (1.0 - self.jitter * self._jitter_draw(attempt, key))

    def total_backoff(self, attempts: int) -> float:
        """Cumulative sleep before attempts ``2..attempts`` (with the
        budget applied) — never exceeds ``backoff_budget_seconds``.
        With jitter this is an upper bound: jitter only shortens
        individual delays."""
        total = 0.0
        for attempt in range(2, attempts + 1):
            step = self._raw_delay(attempt)
            if self.backoff_budget_seconds is not None:
                step = min(
                    step, max(0.0, self.backoff_budget_seconds - total)
                )
            total += step
        return total

    def should_retry(self, attempt: int, error: BaseException) -> bool:
        """May the scheduler try again after ``attempt`` failed?"""
        if attempt >= self.max_attempts:
            return False
        if isinstance(error, NON_RETRYABLE):
            return False
        return isinstance(error, self.retry_on)


#: The scheduler's default: one attempt, no timeout — retries are
#: opt-in because most tasks here are deterministic numerics where a
#: failure means a bug, not bad luck.
NO_RETRY = RetryPolicy(max_attempts=1)
