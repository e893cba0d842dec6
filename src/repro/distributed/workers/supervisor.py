"""The worker supervisor: leases, heartbeats, respawns, degradation.

:class:`WorkerSupervisor` owns the robustness contract of cross-process
execution.  Tasks are *leased*, never fire-and-forgotten: a task whose
lease expires is requeued and its (presumed hung) worker replaced.
Workers beat a heartbeat; silence past the deadline is a death, and a
SIGKILLed process is caught even faster through pipe EOF.  Every
replacement consumes a *crash budget* — backed off exponentially with
decorrelation jitter so simultaneous respawns don't retry in lockstep
— and when the budget is gone the supervisor degrades to inline
in-process execution: metered (``worker.inline_fallbacks``), logged,
and never a hang or a silent wrong answer.

Failure taxonomy the supervisor distinguishes:

* **Worker failures** (process death, heartbeat silence, lease expiry,
  corrupt reply) are *supervisor-owned*: requeue the task, replace the
  worker, meter the recovery.  The caller never sees them unless the
  crash budget dies trying.
* **Task failures** (the task's own exception, arriving as an error
  envelope) are *caller-owned*: surfaced per-task in the returned
  :class:`TaskOutcome`.  The MapReduce engine raises the first one, and
  the runtime's :class:`~repro.runtime.RetryPolicy` on the enclosing
  D-M2TD phase — not the supervisor — decides on retries.
* **Poison tasks** (``poison_lease_expiries`` expired leases on the
  same task) are quarantined off the worker pool and run once inline,
  which separates "this task kills workers" from "this task is simply
  wrong" — the inline run's result or exception is the verdict.

Results are keyed by submission index, so output order (and therefore
byte-identical D-M2TD) is independent of worker count and scheduling.
"""

from __future__ import annotations

import logging
import pickle
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ...exceptions import (
    CorruptReplyError,
    CrashBudgetError,
    PoisonTaskError,
    WorkerProtocolError,
    WorkerSpawnError,
)
from ...faults.directive import directive_for
from ...faults.injector import get_injector
from ...observability import Span, get_metrics, get_tracer, span as _span
from ...observability.distributed import current_trace_context, merge_snapshot
from ...runtime.retry import RetryPolicy
from .protocol import (
    ErrorEnvelope,
    HeartbeatMessage,
    HelloMessage,
    ResultMessage,
    ShutdownMessage,
    TaskMessage,
    WorkerConfig,
)
from .transport import Transport, WorkerHandle, make_transport

__all__ = ["TaskOutcome", "WorkerSupervisor"]

logger = logging.getLogger("repro.workers")

#: Default backoff for worker respawns: exponential with 50%
#: decorrelation jitter keyed by worker id, capped at 1s per sleep.
DEFAULT_RESPAWN_POLICY = RetryPolicy(
    max_attempts=1,  # unused here; the crash budget bounds respawns
    backoff_seconds=0.05,
    max_backoff_seconds=1.0,
    jitter=0.5,
)


@dataclass
class TaskOutcome:
    """What happened to one submitted task."""

    task_id: str
    value: Any = None
    error: Optional[BaseException] = None
    worker_id: str = ""
    #: Supervisor-level requeues this task survived (lease expiries,
    #: worker deaths, corrupt replies) before completing.
    requeues: int = 0
    #: The task ran in the supervisor process (degraded mode,
    #: quarantine, or an unpicklable payload).
    ran_inline: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class _Entry:
    index: int
    task_id: str
    fn: Callable[[], Any]
    state: str = "pending"  # pending | running | done | failed
    value: Any = None
    error: Optional[BaseException] = None
    worker_id: str = ""
    requeues: int = 0
    expiries: int = 0
    ran_inline: bool = False
    heal_targets: Set[Tuple[str, str]] = field(default_factory=set)
    #: Dispatch bookkeeping for trace stitching: when the task last
    #: went out (perf_counter for the dispatch span, wall clock for
    #: clock-skew normalization of the child snapshot) and the decoded
    #: telemetry awaiting the post-batch merge.
    dispatched_perf: float = 0.0
    dispatched_unix: float = 0.0
    completed_perf: float = 0.0
    expects_telemetry: bool = False
    telemetry: Optional[dict] = None
    #: Why the shipped snapshot was lost ("" while none was), recorded
    #: as ``telemetry_dropped`` on the task's dispatch span.
    telemetry_dropped: str = ""

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def outcome(self) -> TaskOutcome:
        return TaskOutcome(
            task_id=self.task_id, value=self.value, error=self.error,
            worker_id=self.worker_id, requeues=self.requeues,
            ran_inline=self.ran_inline,
        )


@dataclass
class _Slot:
    slot_id: int
    worker_id: str
    handle: Optional[WorkerHandle] = None
    state: str = "empty"  # empty | live | waiting | retired
    entry: Optional[_Entry] = None
    lease_deadline: float = 0.0
    last_beat: float = 0.0
    counted_misses: int = 0
    spawn_attempts: int = 0
    respawn_at: float = 0.0
    #: A fault/death happened; the next successful Hello heals it.
    pending_heal: bool = False


class WorkerSupervisor:
    """Supervise a fixed pool of workers over a pluggable transport.

    Parameters
    ----------
    transport:
        ``"inline"``, ``"process"``, or a :class:`Transport` instance.
    n_workers:
        Pool width.  Worker ids ``worker-0 .. worker-{n-1}`` are stable
        across respawns, so fault-plan targets keep matching the
        replacement.
    heartbeat_seconds / heartbeat_misses:
        Beat cadence and how many whole missed intervals are tolerated
        before a silent worker is declared dead.
    lease_seconds:
        Wall-clock budget per task assignment; an expired lease
        requeues the task and replaces its worker.  Defaults to
        ``max(20 * heartbeat_seconds, 5.0)``.
    poison_lease_expiries:
        Lease expiries on the *same* task before it is quarantined off
        the pool and resolved inline.
    crash_budget:
        Total worker replacements (respawns and failed spawn retries)
        the supervisor will pay for before degrading.
    respawn_policy:
        :class:`RetryPolicy` shaping respawn backoff; only its delay
        schedule is used, keyed per worker id for decorrelation.
    degrade_to_inline:
        On budget exhaustion, run the remaining work inline
        (metered + logged) instead of raising
        :class:`~repro.exceptions.CrashBudgetError`.
    """

    def __init__(
        self,
        transport="process",
        n_workers: int = 2,
        heartbeat_seconds: float = 0.25,
        heartbeat_misses: int = 4,
        lease_seconds: Optional[float] = None,
        poison_lease_expiries: int = 3,
        crash_budget: int = 3,
        respawn_policy: Optional[RetryPolicy] = None,
        degrade_to_inline: bool = True,
        start_method: Optional[str] = None,
    ):
        n_workers = int(n_workers)
        if n_workers < 1:
            raise WorkerProtocolError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        if heartbeat_seconds <= 0:
            raise WorkerProtocolError(
                f"heartbeat_seconds must be > 0, got {heartbeat_seconds}"
            )
        if lease_seconds is not None and lease_seconds <= 0:
            raise WorkerProtocolError(
                f"lease_seconds must be > 0, got {lease_seconds}"
            )
        if poison_lease_expiries < 1:
            raise WorkerProtocolError(
                "poison_lease_expiries must be >= 1, got "
                f"{poison_lease_expiries}"
            )
        if crash_budget < 0:
            raise WorkerProtocolError(
                f"crash_budget must be >= 0, got {crash_budget}"
            )
        self.transport: Transport = make_transport(transport, start_method)
        self.n_workers = n_workers
        self.heartbeat_seconds = float(heartbeat_seconds)
        self.heartbeat_misses = int(heartbeat_misses)
        self.lease_seconds = (
            float(lease_seconds)
            if lease_seconds is not None
            else max(20.0 * self.heartbeat_seconds, 5.0)
        )
        self.poison_lease_expiries = int(poison_lease_expiries)
        self.crash_budget = int(crash_budget)
        self.respawn_policy = respawn_policy or DEFAULT_RESPAWN_POLICY
        self.degrade_to_inline = bool(degrade_to_inline)
        self._slots = [
            _Slot(slot_id=i, worker_id=f"worker-{i}")
            for i in range(n_workers)
        ]
        self._respawns = 0
        #: Why execution fell back to inline ("" while it has not).
        self._degraded_reason = ""
        self._closed = False
        self._lock = threading.RLock()
        self._pending: deque = deque()

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True once the crash budget is exhausted and execution fell
        back to inline."""
        return bool(self._degraded_reason)

    @property
    def respawns(self) -> int:
        return self._respawns

    def run_tasks(
        self, tasks: Sequence[Tuple[str, Callable[[], Any]]]
    ) -> List[TaskOutcome]:
        """Run ``(task_id, zero-arg callable)`` pairs; outcomes come
        back in submission order regardless of completion order.

        Worker-level failures are absorbed here (within the crash
        budget); task-level exceptions come back per-outcome for the
        caller to raise or retry.  Thread-safe but serialised — one
        batch owns the pool at a time.
        """
        entries = [
            _Entry(index=i, task_id=str(task_id), fn=fn)
            for i, (task_id, fn) in enumerate(tasks)
        ]
        if not entries:
            return []
        with self._lock:
            if self._closed:
                raise WorkerProtocolError(
                    "supervisor is shut down; no tasks accepted"
                )
            with _span(
                "supervisor-run", "worker",
                transport=self.transport.kind, tasks=len(entries),
            ) as sp:
                self._run_entries(entries)
                self._merge_telemetry(entries, sp)
                sp.set(
                    respawns=self._respawns,
                    degraded=self.degraded,
                    degraded_reason=self._degraded_reason,
                )
        return [entry.outcome() for entry in entries]

    def shutdown(self) -> None:
        """Stop every worker and refuse further batches."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for slot in self._slots:
                if slot.handle is not None:
                    try:
                        slot.handle.send(ShutdownMessage())
                    except WorkerProtocolError:
                        pass
                    slot.handle.kill()
                    slot.handle = None
                slot.state = "retired"
            self.transport.shutdown()

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # the supervision loop
    # ------------------------------------------------------------------
    def _run_entries(self, entries: List[_Entry]) -> None:
        if self.degraded:
            for entry in entries:
                self._run_inline(entry, "degraded")
            return
        by_task: Dict[str, _Entry] = {e.task_id: e for e in entries}
        self._pending = deque(entries)
        self._ensure_started()
        while not all(e.finished for e in entries):
            if self.degraded:
                break
            now = time.monotonic()
            self._respawn_due(now)
            self._assign(now)
            if self.degraded:
                break
            live = [s for s in self._slots if s.state == "live"]
            if not live:
                # Nothing running and nothing live: either workers are
                # in respawn backoff (sleep until one is due) or the
                # pool is gone for good.
                waiting = [
                    s for s in self._slots if s.state == "waiting"
                ]
                if not waiting:
                    self._enter_degraded("no workers left")
                    break
                time.sleep(
                    max(
                        0.0,
                        min(s.respawn_at for s in waiting)
                        - time.monotonic(),
                    )
                )
                continue
            timeout = self._poll_timeout(now, live)
            ready = self.transport.wait(
                [s.handle for s in live if s.handle is not None], timeout
            )
            by_handle = {id(s.handle): s for s in live}
            now = time.monotonic()
            for handle in ready:
                slot = by_handle.get(id(handle))
                if slot is None or slot.handle is None:
                    continue
                for message in handle.receive_all():
                    self._on_message(slot, by_task, message, now)
            self._check_deadlines(time.monotonic())
        if self.degraded:
            for entry in entries:
                if not entry.finished:
                    entry.state = "pending"
                    self._run_inline(entry, "degraded")
        if all(e.state == "done" for e in entries):
            # The batch completed despite any worker-keyed faults along
            # the way — that *is* the recovery, even when the pool
            # finished without waiting for a wounded slot to respawn
            # (or before an armed crash ever fired).  note_recovery is
            # a no-op unless a fault is actually pending for the key.
            injector = get_injector()
            if injector.enabled:
                for slot in self._slots:
                    injector.note_recovery("worker.spawn", slot.worker_id)
                    injector.note_recovery(
                        "worker.heartbeat", slot.worker_id
                    )
                    slot.pending_heal = False

    def _merge_telemetry(self, entries: List[_Entry], sp: Any) -> None:
        """Stitch shipped worker telemetry into the parent's trace and
        metrics, still inside the open batch span.

        Every externally dispatched task gets a ``dispatch:<task_id>``
        span under the batch span — even when its snapshot was dropped
        or corrupted, which is exactly the degraded
        "supervisor-side-only" view, marked ``telemetry_dropped``.
        Child spans attach beneath the dispatch span,
        clock-skew-normalized onto this tracer's timeline;
        counters/histograms fold into the live registry with
        ``worker.<id>`` attribution.
        """
        tracer = get_tracer()
        registry = get_metrics()
        parent_open = isinstance(sp, Span)
        for entry in entries:
            dispatch = None
            if (
                tracer.enabled
                and parent_open
                and entry.dispatched_perf
                and not entry.ran_inline
            ):
                dispatch = Span(
                    tracer,
                    f"dispatch:{entry.task_id}",
                    "worker",
                    {"worker": entry.worker_id, "requeues": entry.requeues},
                )
                dispatch.started = max(
                    0.0, entry.dispatched_perf - tracer.epoch
                )
                ended = entry.completed_perf or time.perf_counter()
                dispatch.wall_seconds = max(
                    0.0, ended - entry.dispatched_perf
                )
                dispatch.thread = threading.current_thread().name
                if entry.error is not None:
                    dispatch.error = type(entry.error).__name__
                if entry.telemetry_dropped:
                    dispatch.set(telemetry_dropped=entry.telemetry_dropped)
                sp.children.append(dispatch)
            if entry.telemetry:
                worker_id = entry.worker_id
                if worker_id.startswith("worker-"):
                    worker_id = worker_id[len("worker-"):]
                merge_snapshot(
                    entry.telemetry,
                    parent_span=dispatch,
                    tracer=tracer,
                    registry=registry,
                    dispatched_unix=entry.dispatched_unix,
                    worker_id=worker_id,
                )
                entry.telemetry = None

    def _poll_timeout(self, now: float, live: List[_Slot]) -> float:
        deadlines = []
        for slot in live:
            deadlines.append(
                slot.last_beat
                + (slot.counted_misses + 2) * self.heartbeat_seconds
            )
            if slot.entry is not None:
                deadlines.append(slot.lease_deadline)
        for slot in self._slots:
            if slot.state == "waiting":
                deadlines.append(slot.respawn_at)
        horizon = min(deadlines) - now if deadlines else (
            self.heartbeat_seconds
        )
        return max(0.0, min(horizon, self.heartbeat_seconds))

    # ------------------------------------------------------------------
    # spawning and death
    # ------------------------------------------------------------------
    def _ensure_started(self) -> None:
        for slot in self._slots:
            if slot.state == "empty":
                self._try_spawn(slot)
                if self.degraded:
                    return

    def _try_spawn(self, slot: _Slot) -> bool:
        slot.spawn_attempts += 1
        worker_id = slot.worker_id
        injector = get_injector()
        kill_after_spawn = False
        with _span(
            "worker-spawn", "worker",
            worker=worker_id, attempt=slot.spawn_attempts,
        ) as sp:
            try:
                directive = directive_for(
                    injector, "worker.spawn", worker_id
                )
                if directive is not None:
                    if directive.kind == "raise":
                        raise WorkerSpawnError(
                            worker_id,
                            directive.message or "injected spawn failure",
                        )
                    if directive.kind == "delay":
                        time.sleep(directive.delay_seconds)
                    elif directive.kind == "crash-worker":
                        kill_after_spawn = True
                heartbeat_directive = directive_for(
                    injector, "worker.heartbeat", worker_id
                )
                config = WorkerConfig(
                    worker_id=worker_id,
                    heartbeat_seconds=self.heartbeat_seconds,
                    heartbeat_directive=heartbeat_directive,
                )
                handle = self.transport.spawn(config)
            except WorkerSpawnError as exc:
                logger.warning("spawn of %s failed: %s", worker_id, exc)
                self._after_worker_loss(slot, "spawn failed")
                return False
            sp.set(pid=handle.pid)
        now = time.monotonic()
        slot.handle = handle
        slot.state = "live"
        slot.last_beat = now
        slot.counted_misses = 0
        slot.entry = None
        if kill_after_spawn:
            # A real kill -9 of the live worker: death is discovered
            # by the loop (pipe EOF / liveness), recovery by respawn.
            handle.kill_hard()
        return True

    def _respawn_due(self, now: float) -> None:
        for slot in self._slots:
            if slot.state == "waiting" and now >= slot.respawn_at:
                self._try_spawn(slot)

    def _handle_death(self, slot: _Slot, reason: str) -> None:
        logger.warning(
            "worker %s lost (%s); requeueing its lease", slot.worker_id,
            reason,
        )
        entry = slot.entry
        slot.entry = None
        with _span(
            "worker-death", "worker", worker=slot.worker_id, reason=reason,
            task=entry.task_id if entry is not None else "",
        ):
            if entry is not None and entry.state == "running":
                entry.state = "pending"
                entry.requeues += 1
                entry.heal_targets.add(("worker.result", entry.task_id))
                self._pending.append(entry)
            if slot.handle is not None:
                slot.handle.kill()
                slot.handle = None
            slot.pending_heal = True
            self._after_worker_loss(slot, reason)

    def _after_worker_loss(self, slot: _Slot, reason: str) -> None:
        """Pay for a replacement (or degrade) and schedule the respawn
        with decorrelated backoff."""
        self._respawns += 1
        get_metrics().counter("worker.respawns").inc()
        if self._respawns > self.crash_budget:
            slot.state = "retired"
            self._enter_degraded(
                f"crash budget exhausted after {reason!r}"
            )
            return
        delay = self.respawn_policy.delay(
            slot.spawn_attempts + 1, key=slot.worker_id
        )
        slot.state = "waiting"
        slot.respawn_at = time.monotonic() + delay

    def _enter_degraded(self, reason: str) -> None:
        if not self.degrade_to_inline:
            self.shutdown_workers_only()
            raise CrashBudgetError(self._respawns, self.crash_budget)
        if not self.degraded:
            self._degraded_reason = reason
            get_metrics().gauge("worker.degraded").set(1)
            logger.warning(
                "degrading to inline execution (%s); remaining tasks "
                "run in-process and are metered on "
                "worker.inline_fallbacks", reason,
            )
        self.shutdown_workers_only()

    def shutdown_workers_only(self) -> None:
        """Kill the pool but keep accepting (inline) work."""
        for slot in self._slots:
            if slot.handle is not None:
                slot.handle.kill()
                slot.handle = None
            if slot.state in ("live", "waiting"):
                slot.state = "retired"

    # ------------------------------------------------------------------
    # dispatch and messages
    # ------------------------------------------------------------------
    def _assign(self, now: float) -> None:
        for slot in self._slots:
            if slot.state != "live" or slot.entry is not None:
                continue
            entry = self._next_pending()
            if entry is None:
                return
            self._dispatch(slot, entry, now)
            if self.degraded:
                return

    def _next_pending(self) -> Optional[_Entry]:
        while self._pending:
            entry = self._pending.popleft()
            if entry.state == "pending":
                return entry
        return None

    def _dispatch(self, slot: _Slot, entry: _Entry, now: float) -> None:
        metrics = get_metrics()
        injector = get_injector()
        reply_directive = directive_for(
            injector, "worker.result", entry.task_id
        )
        payload: Any = entry.fn
        if self.transport.requires_pickle:
            try:
                payload = pickle.dumps(entry.fn)
            except Exception as exc:  # noqa: BLE001 — any pickling error
                logger.warning(
                    "task %s is not picklable (%s); running inline",
                    entry.task_id, exc,
                )
                metrics.counter("worker.unpicklable_tasks").inc()
                self._run_inline(entry, "unpicklable")
                return
            metrics.counter("worker.bytes_sent").inc(len(payload))
        # Telemetry only crosses a process boundary — the inline venue
        # records straight into the live tracer and metrics — and only
        # while tracing is on, so the disabled path captures and ships
        # nothing.
        collect_telemetry = (
            self.transport.requires_pickle and get_tracer().enabled
        )
        telemetry_directive = (
            directive_for(injector, "observability.telemetry", entry.task_id)
            if collect_telemetry
            else None
        )
        message = TaskMessage(
            task_id=entry.task_id,
            payload=payload,
            reply_directive=reply_directive,
            trace_context=current_trace_context(f"dispatch:{entry.task_id}"),
            collect_telemetry=collect_telemetry,
            telemetry_directive=telemetry_directive,
        )
        try:
            slot.handle.send(message)
        except WorkerProtocolError:
            slot.entry = entry
            entry.state = "running"
            self._handle_death(slot, "send failed")
            return
        slot.entry = entry
        slot.lease_deadline = now + self.lease_seconds
        entry.state = "running"
        entry.worker_id = slot.worker_id
        entry.expects_telemetry = collect_telemetry
        entry.dispatched_perf = time.perf_counter()
        entry.dispatched_unix = time.time()
        metrics.counter("worker.tasks_dispatched").inc()

    def _on_message(
        self, slot: _Slot, by_task: Dict[str, _Entry], message, now: float
    ) -> None:
        metrics = get_metrics()
        injector = get_injector()
        # Any message is proof of liveness — a worker busy enough to
        # reply is not dead, whatever its beat thread is doing.
        slot.last_beat = now
        slot.counted_misses = 0
        if isinstance(message, HelloMessage):
            if slot.pending_heal and injector.enabled:
                # The slot died (or failed to spawn) and is back: the
                # worker-keyed faults that caused it are healed.
                injector.note_recovery("worker.spawn", slot.worker_id)
                injector.note_recovery("worker.heartbeat", slot.worker_id)
            slot.pending_heal = False
            return
        if isinstance(message, HeartbeatMessage):
            return
        if isinstance(message, ResultMessage):
            entry = by_task.get(message.task_id)
            if entry is None or entry.finished:
                return  # stale duplicate; first completion already won
            try:
                value = message.value()
            except CorruptReplyError as exc:
                logger.warning("%s; requeueing and replacing", exc)
                metrics.counter("worker.corrupt_replies").inc()
                if slot.entry is entry:
                    self._handle_death(slot, "corrupt reply")
                else:  # pragma: no cover — defensive
                    entry.state = "pending"
                    entry.requeues += 1
                    self._pending.append(entry)
                entry.heal_targets.add(("worker.result", entry.task_id))
                return
            if isinstance(message.payload, (bytes, bytearray)):
                metrics.counter("worker.bytes_received").inc(
                    len(message.payload)
                )
            entry.value = value
            entry.state = "done"
            entry.worker_id = message.worker_id
            entry.completed_perf = time.perf_counter()
            if entry.expects_telemetry:
                # A mangled or missing snapshot costs visibility only:
                # the task result above is already accepted; we meter
                # the loss and fall back to supervisor-side-only spans.
                try:
                    entry.telemetry = message.telemetry_snapshot()
                    if entry.telemetry is None:
                        raise ValueError("snapshot missing from reply")
                except ValueError as exc:
                    entry.telemetry = None
                    entry.telemetry_dropped = str(exc)
                    metrics.counter("worker.telemetry_dropped").inc()
                    if injector.enabled:
                        injector.note_recovery(
                            "observability.telemetry", entry.task_id
                        )
            if slot.entry is entry:
                slot.entry = None
            if injector.enabled:
                injector.note_recovery("worker.result", entry.task_id)
                for site, target in entry.heal_targets:
                    injector.note_recovery(site, target)
            return
        if isinstance(message, ErrorEnvelope):
            entry = by_task.get(message.task_id)
            if entry is None or entry.finished:
                return
            entry.error = message.rebuild()
            entry.state = "failed"
            entry.worker_id = message.worker_id
            entry.completed_perf = time.perf_counter()
            if slot.entry is entry:
                slot.entry = None
            return

    # ------------------------------------------------------------------
    # deadlines
    # ------------------------------------------------------------------
    def _check_deadlines(self, now: float) -> None:
        metrics = get_metrics()
        for slot in list(self._slots):
            if slot.state != "live" or slot.handle is None:
                continue
            if not slot.handle.alive():
                self._handle_death(slot, "process died")
                continue
            silent = now - slot.last_beat
            whole_missed = max(0, int(silent / self.heartbeat_seconds) - 1)
            if whole_missed > slot.counted_misses:
                metrics.counter("worker.heartbeat_misses").inc(
                    whole_missed - slot.counted_misses
                )
                slot.counted_misses = whole_missed
            if slot.counted_misses > self.heartbeat_misses:
                self._handle_death(slot, "heartbeat silence")
                continue
            if slot.entry is not None and now >= slot.lease_deadline:
                entry = slot.entry
                metrics.counter("worker.lease_expiries").inc()
                entry.expiries += 1
                logger.warning(
                    "lease on task %s (worker %s) expired (%d/%d)",
                    entry.task_id, slot.worker_id, entry.expiries,
                    self.poison_lease_expiries,
                )
                if entry.expiries >= self.poison_lease_expiries:
                    # Quarantine: the task keeps outliving its lease no
                    # matter which worker holds it — take it off the
                    # pool entirely and settle it inline.
                    slot.entry = None
                    metrics.counter("worker.poisoned").inc()
                    entry.heal_targets.add(
                        ("worker.result", entry.task_id)
                    )
                    self._run_inline(entry, "quarantined")
                    self._handle_death(slot, "lease expired (poison)")
                else:
                    self._handle_death(slot, "lease expired")

    # ------------------------------------------------------------------
    # inline execution (degradation, quarantine, unpicklable tasks)
    # ------------------------------------------------------------------
    def _run_inline(self, entry: _Entry, reason: str) -> None:
        """Settle ``entry`` in this process under an ``inline:<task>``
        span; ``reason`` is ``degraded``, ``quarantined`` or
        ``unpicklable``."""
        get_metrics().counter(
            "worker.inline_fallbacks" if reason == "degraded"
            else "worker.inline_tasks"
        ).inc()
        injector = get_injector()
        entry.ran_inline = True
        entry.worker_id = "inline"
        with _span(f"inline:{entry.task_id}", "worker", reason=reason):
            try:
                entry.value = entry.fn()
            except PoisonTaskError:
                raise  # pragma: no cover — defensive
            except BaseException as exc:  # noqa: BLE001 — outcome carries it
                entry.error = exc
                entry.state = "failed"
                return
        entry.state = "done"
        if injector.enabled:
            injector.note_recovery("worker.result", entry.task_id)
            for site, target in entry.heal_targets:
                injector.note_recovery(site, target)
        if reason == "quarantined":
            logger.warning(
                "quarantined task %s completed inline after %d expired "
                "lease(s)", entry.task_id, entry.expiries,
            )
