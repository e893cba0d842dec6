"""A local MapReduce engine with per-task accounting.

The paper runs D-M2TD on Hadoop over 18 Chameleon-cloud servers; this
module supplies the execution substrate for our reproduction: jobs are
expressed as classic ``map -> shuffle -> reduce`` pipelines and
executed locally, while every task records its compute time and the
bytes it moved.  :mod:`repro.distributed.cluster` replays those
measurements against a cluster model to obtain the wall-clock a given
server count would achieve — which is all Table III needs (the phase
split and the scaling shape, not JVM details).

Task bodies are module-level callable objects (:class:`_MapTaskBody`,
:class:`_ReduceTaskBody`) built from plain data, so the same job can
run in-process (threads, the default) or be dispatched through a
:class:`~repro.distributed.workers.WorkerSupervisor` to real external
worker processes.  Fault decisions are always taken engine-side — the
armed effect rides into the task as a picklable
:class:`~repro.faults.directive.FaultDirective` — so the injector's
ordinal bookkeeping and recovery accounting stay in one process no
matter where the task lands.

The engine runs each task once and retries nothing: a failed task fails
its job.  D-M2TD runs each job as one task of a runtime
:class:`~repro.runtime.TaskGraph`, so the runtime's
:class:`~repro.runtime.RetryPolicy` retries the whole phase, and a
supervised pool replaces dead workers on its own.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from ..exceptions import FaultInjectionError, MapReduceError
from ..faults.directive import FaultDirective, directive_for
from ..faults.injector import get_injector
from ..observability import get_metrics, span as _span
from ..runtime.executors import InlineExecutor, ThreadExecutor

#: A key-value record flowing through the pipeline.
Record = Tuple[Hashable, Any]

#: ``map(key, value) -> iterable of records``.
MapFn = Callable[[Hashable, Any], Iterable[Record]]

#: ``reduce(key, values) -> iterable of records``.
ReduceFn = Callable[[Hashable, List[Any]], Iterable[Record]]

#: ``M2TD_TRANSPORT`` env values that mean "no external workers".
_IN_PROCESS_TRANSPORTS = ("", "thread", "none", "off")


def payload_bytes(value: Any) -> int:
    """Approximate serialized size of a record payload.

    Numpy arrays report their buffer size; containers recurse; other
    objects are charged a small flat cost.  Only *relative* sizes
    matter — the cluster model multiplies by a configurable per-byte
    network cost.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, np.generic):
        # numpy scalars (np.float64, np.int32, ...) know their width;
        # without this branch they fell through to the flat 8-byte cost.
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(payload_bytes(v) for v in value) + 8
    if isinstance(value, dict):
        return sum(
            payload_bytes(k) + payload_bytes(v) for k, v in value.items()
        ) + 8
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    return 8


@dataclass
class TaskStats:
    """Accounting for one map or reduce task."""

    task_id: str
    records_in: int = 0
    records_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    compute_seconds: float = 0.0


@dataclass
class JobStats:
    """Accounting for one MapReduce job run."""

    name: str
    map_tasks: List[TaskStats] = field(default_factory=list)
    reduce_tasks: List[TaskStats] = field(default_factory=list)
    shuffle_bytes: int = 0

    @property
    def total_compute_seconds(self) -> float:
        return sum(t.compute_seconds for t in self.map_tasks) + sum(
            t.compute_seconds for t in self.reduce_tasks
        )


@dataclass(frozen=True)
class MapReduceJob:
    """A job specification.

    Attributes
    ----------
    name:
        Job label for reports.
    map_fn / reduce_fn:
        The user functions.  ``map_fn`` may be ``None`` for identity.
    map_tasks:
        Number of map tasks the input is split across (affects only
        the scheduling granularity the cluster model sees).
    """

    name: str
    map_fn: Optional[MapFn] = None
    reduce_fn: Optional[ReduceFn] = None
    map_tasks: int = 4


def _identity_map(key: Hashable, value: Any) -> Iterable[Record]:
    yield key, value


class _MapTaskBody:
    """One map task as a self-contained, picklable callable.

    Carries only its own slice of the input (not the full record
    list), so shipping it to an external worker moves exactly the
    bytes the task needs.  ``directive`` is the engine-armed fault
    effect: raise/crash/delay fire before the work *inside the timed
    section* (a delayed task shows up in its compute time),
    drop-output discards the finished output.
    """

    def __init__(
        self,
        job_name: str,
        task_id: str,
        map_fn: MapFn,
        items: List[Record],
    ):
        self.job_name = job_name
        self.task_id = task_id
        self.map_fn = map_fn
        self.items = items
        self.directive: Optional[FaultDirective] = None

    def __call__(self) -> Tuple[TaskStats, List[Record]]:
        task = TaskStats(task_id=self.task_id)
        emitted_records: List[Record] = []
        started = time.perf_counter()
        with _span(
            self.task_id, "mapreduce", job=self.job_name, stage="map",
            worker=threading.current_thread().name,
        ) as sp:
            directive = self.directive
            drop = directive is not None and directive.kind == "drop-output"
            if directive is not None and not drop:
                directive.apply_pre()
            for key, value in self.items:
                task.records_in += 1
                task.bytes_in += payload_bytes(value)
                try:
                    emitted = list(self.map_fn(key, value))
                except Exception as exc:
                    raise MapReduceError(
                        f"map task {task.task_id} of job "
                        f"{self.job_name!r} failed on key {key!r}: {exc}"
                    ) from exc
                for out_key, out_value in emitted:
                    task.records_out += 1
                    task.bytes_out += payload_bytes(out_value)
                    emitted_records.append((out_key, out_value))
            if drop:
                # The work happened; its output is lost — the fault a
                # retry of the enclosing phase must absorb.
                raise FaultInjectionError(
                    "mapreduce.map",
                    self.task_id,
                    directive.fault_id,
                    "map output dropped",
                )
            sp.set(
                records_in=task.records_in, records_out=task.records_out
            )
        task.compute_seconds = time.perf_counter() - started
        return task, emitted_records


class _ReduceTaskBody:
    """One reduce task as a self-contained, picklable callable."""

    def __init__(
        self,
        job_name: str,
        key: Hashable,
        values: List[Any],
        reduce_fn: ReduceFn,
    ):
        self.job_name = job_name
        self.task_id = f"reduce-{key!r}"
        self.key = key
        self.values = values
        self.reduce_fn = reduce_fn
        self.directive: Optional[FaultDirective] = None

    def __call__(self) -> Tuple[TaskStats, List[Record]]:
        task = TaskStats(task_id=self.task_id)
        task.records_in = len(self.values)
        task.bytes_in = sum(payload_bytes(v) for v in self.values)
        started = time.perf_counter()
        with _span(
            self.task_id, "mapreduce", job=self.job_name, stage="reduce",
            worker=threading.current_thread().name,
        ):
            if self.directive is not None:
                self.directive.apply_pre()
            try:
                emitted = list(self.reduce_fn(self.key, self.values))
            except Exception as exc:
                raise MapReduceError(
                    f"reduce task for key {self.key!r} of job "
                    f"{self.job_name!r} failed: {exc}"
                ) from exc
        task.compute_seconds = time.perf_counter() - started
        for _out_key, out_value in emitted:
            task.records_out += 1
            task.bytes_out += payload_bytes(out_value)
        return task, emitted


class LocalMapReduceEngine:
    """Execute MapReduce jobs, recording task statistics.

    By default the engine is sequential — determinism matters more for
    a reproduction harness than real parallel speed, and the cluster
    model, not the host machine, decides the reported wall-clock.
    Passing ``n_workers > 1`` executes both the map and the reduce
    stages on a runtime thread pool
    (:class:`~repro.runtime.executors.ThreadExecutor`): the
    heavy tasks here are numpy/LAPACK-bound (SVDs, dense projections),
    which release the GIL, so threads yield real speedups without
    pickling the closures a process pool would require.

    Cross-process execution is one constructor argument away:
    ``transport="process"`` (or ``"inline"``) routes every map/reduce
    task through a :class:`~repro.distributed.workers.WorkerSupervisor`
    — external worker processes with heartbeats, task leases, crash
    budgets and metered degradation.  An explicit ``supervisor``
    overrides (and is *not* owned by the engine); with neither given,
    the ``M2TD_TRANSPORT`` environment variable picks the venue, which
    is how the chaos suite runs unchanged against live workers.

    Map results are concatenated in task order and reduce tasks
    complete in sorted key order, so output records and statistics
    ordering are byte-identical to the sequential engine on every
    venue (tests assert it).

    Each task runs once; the first failed task (in submission order)
    fails :meth:`run`.  Retrying is the caller's job — D-M2TD's phases
    retry under the runtime's :class:`~repro.runtime.RetryPolicy`.
    """

    def __init__(
        self,
        n_workers: int = 1,
        transport: Optional[str] = None,
        supervisor: Optional[Any] = None,
        heartbeat_seconds: float = 0.25,
        lease_seconds: Optional[float] = None,
        crash_budget: int = 3,
        start_method: Optional[str] = None,
    ):
        n_workers = int(n_workers)
        if n_workers < 1:
            raise MapReduceError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.n_workers = n_workers
        self.executor = (
            InlineExecutor() if n_workers == 1 else ThreadExecutor(n_workers)
        )
        self._owns_supervisor = False
        if supervisor is None and transport is None:
            transport = os.environ.get("M2TD_TRANSPORT", "").strip() or None
            if transport in _IN_PROCESS_TRANSPORTS:
                transport = None
            hb_env = os.environ.get("M2TD_HEARTBEAT_SECONDS", "").strip()
            if transport is not None and hb_env:
                heartbeat_seconds = float(hb_env)
        if supervisor is None and transport is not None:
            # Imported lazily: repro.distributed.workers depends on this
            # module's payload accounting, not the other way round.
            from .workers import WorkerSupervisor

            supervisor = WorkerSupervisor(
                transport=transport,
                n_workers=n_workers,
                heartbeat_seconds=heartbeat_seconds,
                lease_seconds=lease_seconds,
                crash_budget=crash_budget,
                start_method=start_method,
            )
            self._owns_supervisor = True
            # Tests (and long-lived drivers) don't always close the
            # engine; make sure an engine-owned pool never outlives it.
            self._finalizer = weakref.finalize(
                self, supervisor.shutdown
            )
        self.supervisor = supervisor

    def close(self) -> None:
        """Release the worker pool (only what the engine created)."""
        self.executor.shutdown()
        if self._owns_supervisor and self.supervisor is not None:
            self.supervisor.shutdown()

    def run(
        self, job: MapReduceJob, records: Iterable[Record]
    ) -> Tuple[List[Record], JobStats]:
        """Run ``job`` over ``records``; returns (output records, stats)."""
        records = list(records)
        stats = JobStats(name=job.name)
        map_fn = job.map_fn or _identity_map

        # ----------------------------------------------------- map
        n_map_tasks = max(1, min(int(job.map_tasks), max(len(records), 1)))
        chunks = np.array_split(np.arange(len(records)), n_map_tasks)
        map_bodies = [
            _MapTaskBody(
                job.name,
                f"map-{index}",
                map_fn,
                [records[i] for i in chunk],
            )
            for index, chunk in enumerate(chunks)
        ]
        map_results = self._execute(map_bodies, "mapreduce.map")
        intermediate: List[Record] = []
        for task, emitted_records in map_results:
            stats.map_tasks.append(task)
            intermediate.extend(emitted_records)

        # ----------------------------------------------------- shuffle
        with _span(
            "shuffle", "mapreduce", job=job.name, stage="shuffle",
        ) as shuffle_span:
            groups: Dict[Hashable, List[Any]] = {}
            for key, value in intermediate:
                groups.setdefault(key, []).append(value)
            stats.shuffle_bytes = sum(
                payload_bytes(v) for _k, v in intermediate
            )
            shuffle_span.set(
                shuffle_bytes=stats.shuffle_bytes, keys=len(groups)
            )
        metrics = get_metrics()
        metrics.counter("mapreduce.jobs").inc()
        metrics.counter("mapreduce.shuffle_bytes").inc(stats.shuffle_bytes)

        # ----------------------------------------------------- reduce
        output: List[Record] = []
        if job.reduce_fn is None:
            for key, values in groups.items():
                for value in values:
                    output.append((key, value))
            return output, stats

        ordered_keys = sorted(groups, key=repr)
        reduce_bodies = [
            _ReduceTaskBody(job.name, key, groups[key], job.reduce_fn)
            for key in ordered_keys
        ]
        results = self._execute(reduce_bodies, "mapreduce.reduce")
        for task, emitted in results:
            stats.reduce_tasks.append(task)
            output.extend(emitted)
        return output, stats

    # ------------------------------------------------------------------
    def _run_task(self, body, site):
        """One task, run once under its armed fault directive.  A
        success heals any fault pending for the task (a no-op unless an
        earlier attempt of the enclosing phase injected one), so the
        recovery is credited whichever layer retried it."""
        injector = get_injector()
        body.directive = directive_for(injector, site, body.task_id)
        result = body()
        injector.note_recovery(site, body.task_id)
        return result

    def _execute(self, bodies, site):
        """Run every task body once, returning results in submission
        order (concurrent execution, sequential collection — hence
        deterministic output/statistics ordering).  The first failure in
        that order propagates once every task has settled, so no task of
        a failed job is still running when its phase is retried."""
        if self.supervisor is not None:
            return self._execute_supervised(bodies, site)
        if len(bodies) <= 1 or isinstance(self.executor, InlineExecutor):
            return [self._run_task(body, site) for body in bodies]
        futures = [
            self.executor.submit(self._run_task, body, site)
            for body in bodies
        ]
        futures_wait(futures)
        return [future.result() for future in futures]

    def _execute_supervised(self, bodies, site):
        """One batch through the worker supervisor.  Directives are
        armed here, one injector decision per task, so the fault
        bookkeeping stays in this process; worker-level failures were
        already absorbed by the supervisor's crash budget, and a task's
        own failure comes back as its outcome."""
        injector = get_injector()
        for body in bodies:
            body.directive = directive_for(injector, site, body.task_id)
        outcomes = self.supervisor.run_tasks(
            [(body.task_id, body) for body in bodies]
        )
        for outcome in outcomes:
            if not outcome.ok:
                raise outcome.error
            injector.note_recovery(site, outcome.task_id)
        return [outcome.value for outcome in outcomes]
