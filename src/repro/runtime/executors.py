"""Pluggable executors: one submit interface, two in-process venues.

Every executor exposes ``submit(fn, *args, **kwargs) ->
concurrent.futures.Future``; the scheduler (and any other component
that wants parallelism, e.g. the MapReduce engine's map stage) only
talks to that interface, so swapping venues never changes semantics —
only where the work runs:

* :class:`InlineExecutor` — the calling thread.  Zero overhead, fully
  deterministic scheduling; the default for tiny graphs.
* :class:`ThreadExecutor` — a shared thread pool.  The right venue for
  GIL-releasing numpy/LAPACK work (SVDs, dense projections, batched
  RK4 steps) and for closures, which need no pickling.

The pool is created lazily so merely constructing a
:class:`~repro.runtime.scheduler.Runtime` starts no threads.  Work that
must leave the process goes through the supervised worker pool
(:class:`~repro.distributed.workers.WorkerSupervisor`), the one
process venue.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Optional

from ..exceptions import TaskGraphError
from ..faults.injector import get_injector


class Executor(ABC):
    """The minimal executor contract the runtime schedules onto."""

    #: Affinity label tasks use to request this executor.
    kind: str = "any"

    @abstractmethod
    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Schedule ``fn(*args, **kwargs)``; returns a Future."""

    def _prepare(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Fault-injection hook at the ``executor.submit`` site (target
        = this executor's kind).  The decision is taken on the
        submitting thread, but the effect fires inside the returned
        callable — wherever the venue runs it — so a simulated worker
        crash travels through the future like any real failure."""
        injector = get_injector()
        if injector.enabled:
            return injector.wrap_callable("executor.submit", self.kind, fn)
        return fn

    def shutdown(self, wait: bool = True) -> None:
        """Release pooled workers (no-op for the inline executor)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


class InlineExecutor(Executor):
    """Run submitted work immediately on the calling thread."""

    kind = "inline"

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        fn = self._prepare(fn)
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 — future carries it
            future.set_exception(exc)
        else:
            future.set_result(result)
        return future


class ThreadExecutor(Executor):
    """Shared thread-pool venue for GIL-releasing numeric work; the
    pool is created on first submit and rebuilt after a shutdown."""

    kind = "thread"

    def __init__(self, max_workers: int):
        max_workers = int(max_workers)
        if max_workers < 1:
            raise TaskGraphError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-runtime",
                )
            pool = self._pool
        return pool.submit(self._prepare(fn), *args, **kwargs)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
