"""Transports: where workers live and how messages reach them.

A :class:`Transport` spawns :class:`WorkerHandle`\\ s and multiplexes
their inbound messages; the supervisor never touches a pipe or a
process object directly, so adding a venue (sockets are the designed
follow-up seam) means implementing exactly this contract:

* :class:`InlineTransport` — workers are objects in this process.
  Tasks execute synchronously on ``send``; heartbeats are synthesised
  on every poll.  Zero isolation, zero overhead — the venue for
  supervisor unit tests and for graceful degradation when the crash
  budget is gone.
* :class:`ProcessTransport` — one ``multiprocessing`` process per
  worker, a duplex pipe each, messages multiplexed with
  ``multiprocessing.connection.wait``.  A SIGKILLed child surfaces
  immediately as EOF on its pipe, independent of heartbeat cadence.

Both venues run the *same* task-execution body
(:func:`execute_task`), so a fault directive or error envelope behaves
identically wherever the task lands.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, List, Optional, Sequence

import multiprocessing

from ...exceptions import WorkerProtocolError, WorkerSpawnError
from .protocol import (
    ErrorEnvelope,
    HeartbeatMessage,
    HelloMessage,
    ResultMessage,
    ShutdownMessage,
    TaskMessage,
    WorkerConfig,
    checksum,
    flip_bytes,
)

__all__ = [
    "InlineTransport",
    "ProcessTransport",
    "Transport",
    "WorkerHandle",
    "execute_task",
    "make_transport",
]


def execute_task(
    message: TaskMessage, worker_id: str
) -> Optional[Any]:
    """Run one task message; returns the reply to send (or ``None``
    when a ``drop-output`` reply directive swallows it).

    This is the single task-execution body both venues share.  The
    task callable arrives either pickled (process transport) or live
    (inline transport); mapreduce-level fault directives ride *inside*
    the callable and fire in its own timed section, while
    ``worker.result`` reply directives are applied here, after the
    work: corrupt flips the pickled bytes (the checksum then fails in
    the supervisor), drop never sends, delay stalls the reply.

    When the message asks for telemetry (process venues with tracing
    on), the task runs under :func:`~repro.observability.distributed.
    capture` and its snapshot rides home on the reply with its own
    digest.  An
    ``observability.telemetry`` directive mangles only the snapshot —
    the result bytes and their digest are computed first and are
    never touched, so a telemetry fault can cost visibility but never
    an answer.
    """
    try:
        fn = message.payload
        if isinstance(fn, bytes):
            fn = pickle.loads(fn)
        telemetry_bytes: Optional[bytes] = None
        telemetry_digest = ""
        if message.collect_telemetry:
            from ...observability.distributed import capture

            with capture(
                message.trace_context, worker=worker_id
            ) as telemetry:
                value = fn()
            try:
                telemetry_bytes = telemetry.encode()
                telemetry_digest = checksum(telemetry_bytes)
            except Exception:  # noqa: BLE001 — visibility only
                telemetry_bytes, telemetry_digest = None, ""
            t_directive = message.telemetry_directive
            if t_directive is not None and telemetry_bytes is not None:
                if t_directive.kind == "corrupt":
                    telemetry_bytes = flip_bytes(telemetry_bytes)
                elif t_directive.kind == "delay":
                    time.sleep(t_directive.delay_seconds)
                else:
                    # drop-output (and anything unexpected): the
                    # snapshot vanishes; the task result is untouched.
                    telemetry_bytes, telemetry_digest = None, ""
        else:
            value = fn()
        directive = message.reply_directive
        try:
            payload = pickle.dumps(value)
        except Exception:  # noqa: BLE001 — inline replies may stay raw
            return ResultMessage(
                task_id=message.task_id, worker_id=worker_id,
                payload=value, raw=True,
                telemetry=telemetry_bytes,
                telemetry_digest=telemetry_digest,
            )
        digest = checksum(payload)
        if directive is not None:
            if directive.kind == "drop-output":
                return None
            if directive.kind == "delay":
                time.sleep(directive.delay_seconds)
            elif directive.kind == "corrupt":
                payload = flip_bytes(payload)
        return ResultMessage(
            task_id=message.task_id, worker_id=worker_id,
            payload=payload, digest=digest,
            telemetry=telemetry_bytes,
            telemetry_digest=telemetry_digest,
        )
    except BaseException as exc:  # noqa: BLE001 — envelope carries it
        return ErrorEnvelope.capture(message.task_id, worker_id, exc)


def worker_main(conn, config: WorkerConfig) -> None:
    """Entry point of an external worker process.

    A daemon heartbeat thread beats every ``heartbeat_seconds`` —
    independent of task work, so a busy worker stays visibly alive and
    a hung one goes visibly silent.  The main loop blocks on the pipe
    for task messages until shutdown or EOF (supervisor died).
    """
    send_lock = threading.Lock()

    def send(message) -> None:
        try:
            with send_lock:
                conn.send(message)
        except (BrokenPipeError, OSError):
            os._exit(1)

    stop = threading.Event()
    heartbeat_directive = config.heartbeat_directive

    def beat() -> None:
        directive = heartbeat_directive
        seq = 0
        while not stop.wait(config.heartbeat_seconds):
            if directive is not None:
                if directive.kind == "crash-worker":
                    os.kill(os.getpid(), signal.SIGKILL)
                if directive.kind == "delay":
                    stall = directive.delay_seconds
                    directive = None
                    time.sleep(stall)
            seq += 1
            send(HeartbeatMessage(worker_id=config.worker_id, seq=seq))

    send(HelloMessage(worker_id=config.worker_id, pid=os.getpid()))
    thread = threading.Thread(
        target=beat, name=f"{config.worker_id}-heartbeat", daemon=True
    )
    thread.start()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if isinstance(message, ShutdownMessage):
                break
            if isinstance(message, TaskMessage):
                reply = execute_task(message, config.worker_id)
                if reply is not None:
                    send(reply)
    finally:
        stop.set()


class WorkerHandle(ABC):
    """One live (or recently deceased) worker, as the supervisor sees
    it."""

    def __init__(self, config: WorkerConfig):
        self.config = config
        self.worker_id = config.worker_id

    @property
    def pid(self) -> Optional[int]:
        return None

    @abstractmethod
    def send(self, message) -> None:
        """Deliver a message; raises WorkerProtocolError if the worker
        is unreachable."""

    @abstractmethod
    def receive_all(self) -> List[Any]:
        """Drain every message currently available (non-blocking)."""

    @abstractmethod
    def alive(self) -> bool:
        ...

    @abstractmethod
    def kill(self) -> None:
        """Hard-stop the worker and release its resources."""

    def kill_hard(self) -> None:
        """SIGKILL where that is meaningful; plain kill otherwise."""
        self.kill()


class Transport(ABC):
    """Factory + multiplexer for one flavour of worker."""

    kind: str = "abstract"

    #: Whether task payloads must survive pickling to reach a worker.
    requires_pickle: bool = True

    @abstractmethod
    def spawn(self, config: WorkerConfig) -> WorkerHandle:
        ...

    @abstractmethod
    def wait(
        self, handles: Sequence[WorkerHandle], timeout: float
    ) -> List[WorkerHandle]:
        """Block up to ``timeout`` for handles with messages (or EOF)
        ready."""

    def shutdown(self) -> None:
        """Release transport-wide resources."""


# ----------------------------------------------------------------------
# inline transport
# ----------------------------------------------------------------------
class _InlineHandle(WorkerHandle):
    """An in-process worker: tasks run synchronously inside ``send``.

    Heartbeats are synthesised on every drain — unless an injected
    heartbeat directive silences them (``delay``) or kills the worker
    outright (``crash-worker``), which lets the supervisor's deadline
    machinery be exercised without real processes.
    """

    def __init__(self, config: WorkerConfig):
        super().__init__(config)
        self._inbox: List[Any] = [
            HelloMessage(worker_id=config.worker_id, pid=os.getpid())
        ]
        self._dead = False
        self._seq = 0
        self._silent_until = 0.0
        directive = config.heartbeat_directive
        if directive is not None:
            if directive.kind == "crash-worker":
                self._dead = True
            elif directive.kind == "delay":
                self._silent_until = (
                    time.monotonic() + directive.delay_seconds
                )

    def send(self, message) -> None:
        if self._dead:
            raise WorkerProtocolError(
                f"inline worker {self.worker_id!r} is dead"
            )
        if isinstance(message, ShutdownMessage):
            self._dead = True
            return
        if isinstance(message, TaskMessage):
            reply = execute_task(message, self.worker_id)
            if reply is not None:
                self._inbox.append(reply)

    def receive_all(self) -> List[Any]:
        if self._dead:
            return []
        messages, self._inbox = self._inbox, []
        if time.monotonic() >= self._silent_until:
            self._seq += 1
            messages.append(
                HeartbeatMessage(worker_id=self.worker_id, seq=self._seq)
            )
        return messages

    def alive(self) -> bool:
        return not self._dead

    def kill(self) -> None:
        self._dead = True
        self._inbox = []


class InlineTransport(Transport):
    kind = "inline"
    requires_pickle = False

    def spawn(self, config: WorkerConfig) -> WorkerHandle:
        return _InlineHandle(config)

    def wait(
        self, handles: Sequence[WorkerHandle], timeout: float
    ) -> List[WorkerHandle]:
        # Inline workers complete synchronously; anything alive may
        # have messages (at minimum a heartbeat), so never sleep.
        return [h for h in handles if h.alive()]


# ----------------------------------------------------------------------
# process transport
# ----------------------------------------------------------------------
class _ProcessHandle(WorkerHandle):
    def __init__(self, config: WorkerConfig, process, conn):
        super().__init__(config)
        self.process = process
        self.conn = conn
        self._broken = False

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def send(self, message) -> None:
        if self._broken:
            raise WorkerProtocolError(
                f"worker {self.worker_id!r} pipe is broken"
            )
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            self._broken = True
            raise WorkerProtocolError(
                f"worker {self.worker_id!r} unreachable: {exc}"
            ) from exc

    def receive_all(self) -> List[Any]:
        messages: List[Any] = []
        while not self._broken:
            try:
                if not self.conn.poll(0):
                    break
                messages.append(self.conn.recv())
            except (EOFError, OSError):
                # EOF: the process died (e.g. SIGKILL) — surface as a
                # broken handle; the supervisor treats it as a death.
                self._broken = True
        return messages

    def alive(self) -> bool:
        return not self._broken and self.process.is_alive()

    def kill(self) -> None:
        self._broken = True
        try:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=2.0)
        finally:
            try:
                self.conn.close()
            except OSError:
                pass

    def kill_hard(self) -> None:
        """A real ``kill -9``, bypassing any cleanup the child might
        run — exactly what the chaos suite's spawn-crash fault wants."""
        pid = self.process.pid
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, AttributeError):  # pragma: no cover — win
                self.process.kill()


class ProcessTransport(Transport):
    """One OS process per worker, duplex pipe each.

    ``start_method`` defaults to ``fork`` where available (fast,
    inherits loaded numpy) and falls back to ``spawn``.
    """

    kind = "process"
    requires_pickle = True

    def __init__(self, start_method: Optional[str] = None):
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method

    def spawn(self, config: WorkerConfig) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, config),
            name=config.worker_id,
            daemon=True,
        )
        try:
            process.start()
        except OSError as exc:
            raise WorkerSpawnError(config.worker_id, str(exc)) from exc
        child_conn.close()
        return _ProcessHandle(config, process, parent_conn)

    def wait(
        self, handles: Sequence[WorkerHandle], timeout: float
    ) -> List[WorkerHandle]:
        by_conn = {
            h.conn: h
            for h in handles
            if isinstance(h, _ProcessHandle) and not h._broken
        }
        if not by_conn:
            if timeout > 0:
                time.sleep(min(timeout, 0.05))
            return []
        ready = mp_connection.wait(list(by_conn), timeout=max(timeout, 0))
        return [by_conn[conn] for conn in ready]


def make_transport(kind, start_method: Optional[str] = None) -> Transport:
    """Transport factory: a name (``"inline"``/``"process"``), a
    Transport instance (passed through), or a Transport subclass."""
    if isinstance(kind, Transport):
        return kind
    if isinstance(kind, type) and issubclass(kind, Transport):
        return kind()
    if kind == "inline":
        return InlineTransport()
    if kind == "process":
        return ProcessTransport(start_method=start_method)
    raise WorkerProtocolError(
        f"unknown transport {kind!r}; use 'inline' or 'process'"
    )
