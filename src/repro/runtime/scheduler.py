"""The task-graph scheduler and the `Runtime` facade.

:class:`TaskGraphRunner` walks a :class:`~repro.runtime.graph.TaskGraph`
in dependency order, dispatching each ready task to the executor its
affinity requests, short-circuiting through the
:class:`~repro.runtime.cache.ResultCache` when a fingerprint matches,
and applying the task's :class:`~repro.runtime.retry.RetryPolicy` on
failure.  It fails fast: the first task that exhausts its attempts
aborts the run with a :class:`~repro.exceptions.RuntimeExecutionError`
naming the task.  While tracing is on, each attempt runs under a live
``task:<name>`` span nested under the span open where it was
submitted, and each cache lookup under a ``cache:<name>`` span.

:class:`Runtime` bundles a runner, a shared executor set and one cache
into the object the rest of the library passes around (``runtime=``
parameters, ``--workers`` / ``--cache-dir`` CLI flags).

Attempts are not time-boxed: a running attempt is waited for until it
returns or raises.  Work that can hang (an external worker process)
sits behind the worker supervisor's leases and heartbeats instead.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..exceptions import (
    RetryExhaustedError,
    RuntimeExecutionError,
    TaskFailedError,
    TaskGraphError,
)
from ..faults.injector import get_injector
from ..observability import get_metrics, get_tracer, span
from .cache import ResultCache, fingerprint
from .executors import Executor, InlineExecutor, ThreadExecutor
from .graph import Task, TaskGraph, TaskOutput
from .report import RuntimeReport, TaskMetrics
from .retry import NO_RETRY, RetryPolicy

logger = logging.getLogger(__name__)


@dataclass
class RunOutcome:
    """Results plus metrics for one graph run."""

    results: Dict[str, Any]
    report: RuntimeReport

    def __getitem__(self, task_name: str) -> Any:
        return self.results[task_name]


@dataclass
class _Attempt:
    task: Task
    attempt: int
    started: float


def _traced_attempt(
    fn: Any, tracer: Any, parent: Any, name: str, executor: str, attempt: int
) -> Any:
    """``fn`` recording one live ``task:<name>`` span per attempt on
    whichever thread runs it, nested under ``parent`` (the span open
    where the scheduler submitted the attempt)."""

    def attempt_fn(*args: Any, **kwargs: Any) -> Any:
        with tracer.adopt(parent), tracer.span(
            f"task:{name}", "runtime-task",
            executor=executor, attempts=attempt,
        ):
            return fn(*args, **kwargs)

    return attempt_fn


def _resolve(value: Any, results: Dict[str, Any]) -> Any:
    if isinstance(value, TaskOutput):
        return results[value.task_name]
    return value


class TaskGraphRunner:
    """Schedule a task graph onto a set of executors."""

    def __init__(
        self,
        executors: Optional[Dict[str, Executor]] = None,
        cache: Optional[ResultCache] = None,
        default_retry: Optional[RetryPolicy] = None,
        default_affinity: str = "inline",
    ):
        self.executors = dict(executors or {})
        self.executors.setdefault("inline", InlineExecutor())
        if default_affinity not in self.executors:
            raise TaskGraphError(
                f"default affinity {default_affinity!r} has no executor"
            )
        self.cache = cache
        self.default_retry = default_retry or NO_RETRY
        self.default_affinity = default_affinity

    # ------------------------------------------------------------------
    def _executor_for(self, task: Task) -> Executor:
        affinity = task.affinity
        if affinity == "any":
            affinity = self.default_affinity
        executor = self.executors.get(affinity)
        if executor is None:
            # Degrade gracefully: a runner configured without e.g. a
            # thread pool still runs thread-affine tasks on its default.
            executor = self.executors[self.default_affinity]
        return executor

    def _policy_for(self, task: Task) -> RetryPolicy:
        return task.retry if task.retry is not None else self.default_retry

    # ------------------------------------------------------------------
    def run(self, graph: TaskGraph) -> RunOutcome:
        """Execute the graph; returns results keyed by task name."""
        graph.validate()
        names = graph.names
        metrics = {name: TaskMetrics(name=name) for name in names}
        results: Dict[str, Any] = {}
        cache_keys: Dict[str, str] = {}
        reverse = graph.dependents()
        indegree = {name: len(graph.task(name).deps) for name in names}
        ready: List[str] = [name for name in names if indegree[name] == 0]
        running: Dict[Future, _Attempt] = {}

        def finish(name: str, value: Any) -> None:
            results[name] = value
            task = graph.task(name)
            m = metrics[name]
            if (
                self.cache is not None
                and task.cache_key is not None
                and not m.cache_hit
            ):
                m.bytes_cached = self.cache.put(cache_keys[name], value)
            for dependent in reverse[name]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)

        def submit(task: Task, attempt: int) -> None:
            executor = self._executor_for(task)
            m = metrics[task.name]
            m.executor = executor.kind
            m.attempts = attempt
            args = tuple(_resolve(a, results) for a in task.args)
            kwargs = {k: _resolve(v, results) for k, v in task.kwargs.items()}
            fn = task.fn
            injector = get_injector()
            if injector.enabled:
                # Fault-injection site "runtime.task" (target = task
                # name).  Decided here, per attempt, so a budgeted
                # fault fails attempt 1 and lets the retry succeed;
                # the effect fires on the task's executor so it flows
                # through the ordinary failure path.
                fn = injector.wrap_callable("runtime.task", task.name, fn)
            tracer = get_tracer()
            if tracer.enabled:
                # Tracing off → no wrap, zero overhead.
                fn = _traced_attempt(
                    fn, tracer, tracer.current(), task.name,
                    executor.kind, attempt,
                )
            started = time.monotonic()
            future = executor.submit(fn, *args, **kwargs)
            running[future] = _Attempt(task, attempt, started)

        def fail(task: Task, attempt: int, error: BaseException) -> None:
            policy = self._policy_for(task)
            if policy.should_retry(attempt, error):
                delay = policy.delay(attempt + 1, key=task.name)
                logger.debug(
                    "task %s attempt %d failed (%s); retrying in %.2fs",
                    task.name, attempt, error, delay,
                )
                if delay:
                    time.sleep(delay)
                submit(task, attempt + 1)
                return
            if isinstance(error, RuntimeExecutionError):
                wrapped: RuntimeExecutionError = (
                    RetryExhaustedError(task.name, attempt, error._message)
                    if policy.max_attempts > 1
                    else error
                )
            elif policy.max_attempts > 1:
                wrapped = RetryExhaustedError(task.name, attempt, str(error))
            else:
                wrapped = TaskFailedError(task.name, str(error))
            metrics[task.name].error = str(wrapped)
            raise wrapped from (
                error if not isinstance(error, RuntimeExecutionError) else None
            )

        def launch(name: str) -> None:
            task = graph.task(name)
            m = metrics[name]
            if self.cache is not None and task.cache_key is not None:
                m.cached = True
                key = fingerprint(task.cache_namespace, task.cache_key)
                cache_keys[name] = key
                with span(f"cache:{name}", "cache") as lookup:
                    hit, value = self.cache.get(key)
                    lookup.set(hit=hit)
                if hit:
                    m.cache_hit = True
                    m.executor = "cache"
                    finish(name, value)
                    return
            submit(task, attempt=1)

        try:
            while ready or running:
                while ready:
                    launch(ready.pop(0))
                if not running:
                    continue
                done, _pending = futures_wait(
                    set(running), return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                for future in done:
                    attempt_info = running.pop(future)
                    task = attempt_info.task
                    metrics[task.name].wall_seconds += (
                        now - attempt_info.started
                    )
                    error = future.exception()
                    if error is not None:
                        fail(task, attempt_info.attempt, error)
                        continue
                    if attempt_info.attempt > 1:
                        # A retry healed the task: credit the fault
                        # accounting (no-op unless an injected fault
                        # is pending for it).
                        get_injector().note_recovery(
                            "runtime.task", task.name
                        )
                    finish(task.name, future.result())
        except BaseException:
            for future in running:
                future.cancel()
            raise

        report = RuntimeReport(tasks=[metrics[name] for name in names])
        return RunOutcome(results=results, report=report)


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------
class Runtime:
    """One cache + one executor set + one runner: the object the rest
    of the library threads through (``runtime=`` parameters and the
    ``--workers`` / ``--cache-dir`` CLI flags).

    Parameters
    ----------
    workers:
        Pool width for the thread executor.  ``1`` keeps graph
        execution inline (deterministic scheduling, zero pool
        overhead) while still honouring explicit thread affinities
        with a single-worker pool.
    cache_dir:
        Directory for the content-addressed ``.npz`` cache tier;
        ``None`` keeps results memory-only.
    cache_entries:
        Memory-tier LRU capacity.
    default_retry:
        Retry policy for tasks that do not declare their own.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        cache_entries: int = 128,
        default_retry: Optional[RetryPolicy] = None,
    ):
        workers = int(workers)
        if workers < 1:
            raise TaskGraphError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache = ResultCache(
            max_entries=cache_entries, directory=cache_dir
        )
        self.executors: Dict[str, Executor] = {
            "inline": InlineExecutor(),
            "thread": ThreadExecutor(workers),
        }
        self._runner = TaskGraphRunner(
            executors=self.executors,
            cache=self.cache,
            default_retry=default_retry,
            default_affinity="inline" if workers == 1 else "thread",
        )
        #: Metrics accumulated across every run of this runtime.
        self.report = RuntimeReport()

    # ------------------------------------------------------------------
    def run(self, graph: TaskGraph) -> RunOutcome:
        """Run a graph; metrics also accumulate on ``self.report`` and
        the task and cache counters tick on the process metrics
        registry."""
        outcome = self._runner.run(graph)
        self.report.merge(outcome.report)
        metrics = get_metrics()
        metrics.counter("runtime.tasks").inc(outcome.report.n_tasks)
        metrics.counter("runtime.cache_hits").inc(outcome.report.cache_hits)
        metrics.counter("runtime.cache_misses").inc(
            outcome.report.cache_misses
        )
        return outcome

    def call(
        self,
        name: str,
        fn: Any,
        *args: Any,
        cache_key: Optional[Any] = None,
        cache_scope: Optional[str] = None,
        affinity: str = "any",
        retry: Optional[RetryPolicy] = None,
        **kwargs: Any,
    ) -> Any:
        """Run one function as a single-task graph (with caching)."""
        graph = TaskGraph()
        graph.add(
            name,
            fn,
            *args,
            affinity=affinity,
            cache_key=cache_key,
            cache_scope=cache_scope,
            retry=retry,
            **kwargs,
        )
        return self.run(graph).results[name]

    def shutdown(self, wait: bool = True) -> None:
        for executor in self.executors.values():
            executor.shutdown(wait=wait)

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# process-wide shared runtime
# ----------------------------------------------------------------------
_session_runtime: Optional[Runtime] = None


def session_runtime() -> Runtime:
    """The process-wide shared :class:`Runtime` (lazily created).

    Examples and benchmarks route ground-truth construction through
    this instance so each (system, resolution) tensor is built once
    per session.  Environment overrides: ``M2TD_WORKERS`` sets the
    pool width, ``M2TD_CACHE_DIR`` adds the on-disk cache tier (and
    thereby sharing across processes).
    """
    global _session_runtime
    if _session_runtime is None:
        try:
            workers = max(1, int(os.environ.get("M2TD_WORKERS", "1")))
        except ValueError:
            workers = 1
        _session_runtime = Runtime(
            workers=workers,
            cache_dir=os.environ.get("M2TD_CACHE_DIR") or None,
        )
    return _session_runtime
