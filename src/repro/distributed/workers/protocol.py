"""Wire protocol of the worker layer: messages, envelopes, checksums.

Everything that crosses a transport is one of the small dataclasses
here, and every one of them is plain picklable data — no closures, no
live handles, no injector state.  Two design rules keep the protocol
crash-tolerant:

* **Replies are checksummed.**  A worker pickles its result, hashes
  the bytes, and sends both.  The supervisor never unpickles bytes
  whose digest does not match — a corrupted reply is detected *before*
  deserialisation can do damage, and handled like a worker failure.
* **Errors travel as envelopes, never as raw pickles alone.**  A
  worker-side exception is captured with its type name, message, and
  full traceback text *as strings* (always picklable), plus the
  pickled exception when the class cooperates and its fault provenance
  when it carries any.  A pickling quirk in an exotic exception class
  can therefore mask nothing: the supervisor either re-raises the
  original or a :class:`~repro.exceptions.RemoteTaskError` quoting the
  real worker traceback.
"""

from __future__ import annotations

import hashlib
import pickle
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from ...exceptions import (
    CorruptReplyError,
    FaultInjectionError,
    RemoteTaskError,
    WorkerCrashError,
)
from ...faults.directive import FaultDirective

__all__ = [
    "ErrorEnvelope",
    "HeartbeatMessage",
    "HelloMessage",
    "ResultMessage",
    "ShutdownMessage",
    "TaskMessage",
    "WorkerConfig",
    "checksum",
    "flip_bytes",
]


def checksum(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def flip_bytes(payload: bytes) -> bytes:
    """Bit-flip a few bytes — real corruption for the chaos suite, the
    same idiom the block store's injected disk rot uses."""
    if not payload:
        return payload
    damaged = bytearray(payload)
    for fraction in (0.4, 0.6, 0.8):
        position = min(len(damaged) - 1, int(len(damaged) * fraction))
        damaged[position] ^= 0xFF
    return bytes(damaged)


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to run, shipped at spawn time.

    ``heartbeat_directive`` is the child-side half of a parent-decided
    ``worker.heartbeat`` fault: ``delay`` silences the beat loop for
    ``delay_seconds`` (a hang the supervisor must detect), and
    ``crash-worker`` makes the child SIGKILL itself on its first beat
    — a real dead process, possibly mid-task.
    """

    worker_id: str
    heartbeat_seconds: float = 0.25
    heartbeat_directive: Optional[FaultDirective] = None


@dataclass(frozen=True)
class HelloMessage:
    """First message a worker sends: it is alive and ready."""

    worker_id: str
    pid: int


@dataclass(frozen=True)
class HeartbeatMessage:
    worker_id: str
    seq: int


@dataclass(frozen=True)
class TaskMessage:
    """One leased task.

    ``payload`` is the pickled zero-argument callable for process
    transports, or the callable itself for the in-process transport
    (which never needs to pickle and so accepts closures).
    ``reply_directive`` is the child-side half of a parent-decided
    ``worker.result`` fault: corrupt, drop, or delay the reply.

    ``trace_context`` propagates the parent's trace id so worker-side
    spans stitch back under the dispatching span;
    ``collect_telemetry`` asks the child to capture its spans and
    metrics around the task (the supervisor sets it only on process
    venues, and only while tracing is on — the disabled path ships
    nothing and captures nothing).
    ``telemetry_directive`` is the child-side half of a parent-decided
    ``observability.telemetry`` fault: mangle the snapshot, never the
    result.
    """

    task_id: str
    payload: Any
    reply_directive: Optional[FaultDirective] = None
    trace_context: Optional[Any] = None
    collect_telemetry: bool = False
    telemetry_directive: Optional[FaultDirective] = None


@dataclass(frozen=True)
class ResultMessage:
    """A completed task's reply.

    ``payload`` holds pickled bytes plus their digest; the ``raw``
    flag marks an in-process reply whose value is carried directly
    (unpicklable results stay usable on the inline transport).

    ``telemetry`` carries the worker's serialized telemetry snapshot
    (JSON bytes) with its own digest, checksummed *separately* from
    the result: a mangled snapshot must never poison a good result,
    and a good snapshot must never launder a corrupt result.
    """

    task_id: str
    worker_id: str
    payload: Any
    digest: str = ""
    raw: bool = False
    telemetry: Optional[bytes] = field(default=None, repr=False)
    telemetry_digest: str = ""

    def value(self) -> Any:
        """Verify and deserialise; raises CorruptReplyError on any
        mismatch or undecodable payload."""
        if self.raw:
            return self.payload
        if checksum(self.payload) != self.digest:
            raise CorruptReplyError(
                self.worker_id, self.task_id, "checksum mismatch"
            )
        try:
            return pickle.loads(self.payload)
        except Exception as exc:  # noqa: BLE001 — any decode failure
            raise CorruptReplyError(
                self.worker_id, self.task_id, f"undecodable payload: {exc}"
            ) from exc

    def telemetry_snapshot(self) -> Optional[dict]:
        """Verify and decode the telemetry snapshot, or ``None`` when
        the reply carries none.  Raises ``ValueError`` on a digest
        mismatch or undecodable bytes — the caller degrades to
        supervisor-side-only observability, never a failed task."""
        if self.telemetry is None:
            return None
        if checksum(self.telemetry) != self.telemetry_digest:
            raise ValueError(
                f"telemetry snapshot for task {self.task_id!r} from "
                f"{self.worker_id!r}: checksum mismatch"
            )
        from ...observability.distributed import decode_snapshot

        return decode_snapshot(self.telemetry)


@dataclass(frozen=True)
class ShutdownMessage:
    pass


@dataclass(frozen=True)
class ErrorEnvelope:
    """A worker-side exception, made safe to transport.

    ``provenance`` carries ``(class, site, target, fault_id, message)``
    for injected faults; ``pickled`` is the exception itself when its
    class pickles cleanly (tried second, trusted only if it loads).
    """

    task_id: str
    worker_id: str
    type_name: str
    message: str
    traceback_text: str
    provenance: Optional[Tuple[str, str, str, str, str]] = None
    pickled: Optional[bytes] = field(default=None, repr=False)

    @classmethod
    def capture(
        cls, task_id: str, worker_id: str, exc: BaseException
    ) -> "ErrorEnvelope":
        provenance = None
        if isinstance(exc, FaultInjectionError):
            kind = (
                "crash" if isinstance(exc, WorkerCrashError) else "raise"
            )
            provenance = (
                kind, exc.site, exc.target, exc.fault_id, exc.fault_message
            )
        pickled = None
        try:
            pickled = pickle.dumps(exc)
        except Exception:  # noqa: BLE001 — strings below cover us
            pickled = None
        return cls(
            task_id=task_id,
            worker_id=worker_id,
            type_name=type(exc).__name__,
            message=str(exc),
            traceback_text="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
            provenance=provenance,
            pickled=pickled,
        )

    def rebuild(self) -> BaseException:
        """Reconstruct the most faithful exception available.

        Preference order: the pickled original (full fidelity), a
        provenance-preserving :class:`FaultInjectionError` rebuild,
        then :class:`RemoteTaskError` carrying the raw strings.  The
        worker traceback text is attached as ``remote_traceback``
        either way.
        """
        error: Optional[BaseException] = None
        if self.pickled is not None:
            try:
                candidate = pickle.loads(self.pickled)
                if isinstance(candidate, BaseException):
                    error = candidate
            except Exception:  # noqa: BLE001 — fall through to strings
                error = None
        if error is None and self.provenance is not None:
            kind, site, target, fault_id, message = self.provenance
            klass = WorkerCrashError if kind == "crash" else (
                FaultInjectionError
            )
            error = klass(site, target, fault_id, message)
        if error is None:
            error = RemoteTaskError(
                self.type_name, self.message, self.traceback_text
            )
        try:
            error.remote_traceback = self.traceback_text
        except Exception:  # noqa: BLE001 — slots-only exceptions
            pass
        return error
