"""repro.runtime — the task-graph execution runtime.

The execution substrate the higher layers schedule onto: ensemble
studies express ground-truth construction and per-scheme decomposition
as cached graph tasks, the MapReduce engine runs its map/reduce stages
on the shared executor interface, and D-M2TD's three phases form a
small DAG (phase 1 and phase 2 are independent; phase 3 joins them).
While tracing is on, every task attempt records a live ``task:<name>``
span nested under the span that submitted it.  Work that must leave
the process goes through the supervised worker pool
(:mod:`repro.distributed.workers`), not through this runtime.

Pieces
------
:class:`TaskGraph` / :func:`output`
    Declare named tasks with explicit dependencies and argument
    placeholders.
:class:`InlineExecutor` / :class:`ThreadExecutor`
    Pluggable venues behind one ``submit`` interface, chosen per task
    affinity.
:class:`ResultCache` / :func:`fingerprint`
    Content-addressed LRU cache with optional on-disk ``.npz`` tier.
:class:`RetryPolicy`
    Bounded, jittered backoff for transient task failures.
:class:`Runtime` / :func:`session_runtime`
    The facade everything else threads through (``--workers``,
    ``--cache-dir``).
"""

from .cache import CacheStats, ResultCache, fingerprint
from .executors import Executor, InlineExecutor, ThreadExecutor
from .graph import Task, TaskGraph, TaskOutput, output
from .report import RuntimeReport, TaskMetrics
from .retry import NO_RETRY, RetryPolicy
from .scheduler import (
    RunOutcome,
    Runtime,
    TaskGraphRunner,
    session_runtime,
)

__all__ = [
    "CacheStats",
    "ResultCache",
    "fingerprint",
    "Executor",
    "InlineExecutor",
    "ThreadExecutor",
    "Task",
    "TaskGraph",
    "TaskOutput",
    "output",
    "RuntimeReport",
    "TaskMetrics",
    "NO_RETRY",
    "RetryPolicy",
    "RunOutcome",
    "Runtime",
    "TaskGraphRunner",
    "session_runtime",
]
