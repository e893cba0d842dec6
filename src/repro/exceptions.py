"""Exception hierarchy for the M2TD reproduction library.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch library failures without
swallowing genuine programming errors (``TypeError`` etc. still
propagate untouched).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ShapeError(ReproError, ValueError):
    """A tensor/matrix shape does not match what an operation requires."""


class RankError(ReproError, ValueError):
    """A requested decomposition rank is invalid for the given tensor."""


class ModeError(ReproError, ValueError):
    """A mode index is out of range or otherwise invalid."""


class PartitionError(ReproError, ValueError):
    """A PF-partition specification is inconsistent with the system."""


class BudgetError(ReproError, ValueError):
    """A simulation budget cannot be satisfied (e.g. negative, or
    smaller than the minimum number of samples a scheme needs)."""


class SamplingError(ReproError, ValueError):
    """An ensemble sampler was configured inconsistently."""


class SimulationError(ReproError, RuntimeError):
    """A dynamical-system simulation failed (diverged, bad parameters)."""


class StitchError(ReproError, ValueError):
    """JE-stitching preconditions were violated (e.g. pivot mismatch)."""


class StorageError(ReproError, RuntimeError):
    """The block tensor store hit an I/O or catalog consistency problem."""


class BlockCorruptionError(StorageError):
    """A stored block is unreadable, truncated, or fails its checksum.

    Raised instead of returning a silently wrong tensor: a corrupt or
    missing-but-catalogued block must be loud so callers can recompute
    or restore from the source ensemble.
    """

    def __init__(self, tensor: str, block_id, reason: str):
        super().__init__(
            f"block {tuple(block_id)} of tensor {tensor!r} is corrupt: "
            f"{reason}"
        )
        self.tensor = tensor
        self.block_id = tuple(block_id)
        self.reason = reason

    def __reduce__(self):
        return (self.__class__, (self.tensor, self.block_id, self.reason))


class MapReduceError(ReproError, RuntimeError):
    """A MapReduce job failed (bad job spec, task raised, etc.)."""


class TaskGraphError(ReproError, ValueError):
    """A task graph is malformed (duplicate task, unknown dependency,
    or a dependency cycle)."""


class RuntimeExecutionError(ReproError, RuntimeError):
    """Base class for failures inside the task-graph execution runtime.

    Carries the name of the task that failed so orchestration layers
    can report *which* node of the graph went down.
    """

    def __init__(self, task_name: str, message: str):
        super().__init__(f"task {task_name!r}: {message}")
        self.task_name = task_name
        self._message = message

    def __reduce__(self):
        # Exceptions with non-(args,) __init__ signatures need explicit
        # reduce support to survive the ProcessPoolExecutor round-trip.
        return (self.__class__, (self.task_name, self._message))


class TaskFailedError(RuntimeExecutionError):
    """A task raised; the original exception is chained as ``__cause__``."""


class RetryExhaustedError(RuntimeExecutionError):
    """A task kept failing after every attempt its retry policy allows."""

    def __init__(self, task_name: str, attempts: int, message: str):
        RuntimeExecutionError.__init__(
            self, task_name, f"failed after {attempts} attempt(s): {message}"
        )
        self.attempts = attempts
        self._inner = message

    def __reduce__(self):
        return (self.__class__, (self.task_name, self.attempts, self._inner))


class CacheError(ReproError, RuntimeError):
    """The result cache could not fingerprint or persist a value."""


class FaultInjectionError(ReproError, RuntimeError):
    """An injected fault fired (deterministic chaos testing).

    Carries full provenance — the injection site, the target id the
    fault matched, and the fault's id within its plan — so a failure
    observed N layers up can always be traced back to the schedule
    that caused it (and reproduced from the plan's seed).
    """

    def __init__(self, site: str, target: str, fault_id: str,
                 message: str = ""):
        detail = f"injected fault {fault_id!r} fired at {site}:{target}"
        if message:
            detail = f"{detail} ({message})"
        super().__init__(detail)
        self.site = site
        self.target = target
        self.fault_id = fault_id
        self.fault_message = message

    def __reduce__(self):
        # Survive the ProcessPoolExecutor round-trip (non-(args,)
        # __init__ signature).
        return (
            self.__class__,
            (self.site, self.target, self.fault_id, self.fault_message),
        )


class WorkerCrashError(FaultInjectionError):
    """An injected fault simulating a crashed worker mid-task."""


class WorkerProtocolError(ReproError, RuntimeError):
    """Base class for failures in the cross-process worker protocol."""


class WorkerSpawnError(WorkerProtocolError):
    """A worker process could not be started (or an injected spawn
    fault aborted the attempt)."""

    def __init__(self, worker_id: str, reason: str):
        super().__init__(f"worker {worker_id!r} failed to spawn: {reason}")
        self.worker_id = worker_id
        self.reason = reason

    def __reduce__(self):
        return (self.__class__, (self.worker_id, self.reason))


class CorruptReplyError(WorkerProtocolError):
    """A worker's reply failed its checksum — the payload travelled the
    transport but arrived damaged.  The supervisor treats this like a
    worker death (requeue the task, respawn the worker) rather than
    ever unpickling bytes it cannot trust."""

    def __init__(self, worker_id: str, task_id: str, reason: str):
        super().__init__(
            f"reply for task {task_id!r} from worker {worker_id!r} is "
            f"corrupt: {reason}"
        )
        self.worker_id = worker_id
        self.task_id = task_id
        self.reason = reason

    def __reduce__(self):
        return (self.__class__, (self.worker_id, self.task_id, self.reason))


class PoisonTaskError(WorkerProtocolError):
    """A task burned through its lease-expiry budget and was
    quarantined — it keeps taking workers down (or never finishes)
    no matter where it runs."""

    def __init__(self, task_id: str, expiries: int):
        super().__init__(
            f"task {task_id!r} quarantined after {expiries} expired "
            "lease(s)"
        )
        self.task_id = task_id
        self.expiries = expiries

    def __reduce__(self):
        return (self.__class__, (self.task_id, self.expiries))


class CrashBudgetError(WorkerProtocolError):
    """The supervisor's crash budget is exhausted and inline
    degradation was disabled."""

    def __init__(self, respawns: int, budget: int):
        super().__init__(
            f"crash budget exhausted: {respawns} respawn(s) against a "
            f"budget of {budget}"
        )
        self.respawns = respawns
        self.budget = budget

    def __reduce__(self):
        return (self.__class__, (self.respawns, self.budget))


class RemoteTaskError(WorkerProtocolError):
    """A worker-side exception whose original class could not be
    reconstructed in the supervisor process.

    The original type name, message and full traceback text are
    preserved verbatim, so a pickling quirk in some exotic exception
    class can never mask what actually went wrong in the worker.
    """

    def __init__(self, type_name: str, message: str,
                 remote_traceback: str = ""):
        super().__init__(f"worker raised {type_name}: {message}")
        self.type_name = type_name
        self.remote_message = message
        self.remote_traceback = remote_traceback

    def __reduce__(self):
        return (
            self.__class__,
            (self.type_name, self.remote_message, self.remote_traceback),
        )


class ServingError(ReproError, RuntimeError):
    """Base class for failures in the decomposition-serving layer."""


class StudyNotFoundError(ServingError):
    """A query named a study the catalog has not registered."""

    def __init__(self, study: str, known=()):
        known = sorted(known)
        detail = f"study {study!r} is not registered"
        if known:
            detail = f"{detail} (registered: {', '.join(known)})"
        super().__init__(detail)
        self.study = study
        self.known = tuple(known)

    def __reduce__(self):
        return (self.__class__, (self.study, self.known))


class QueryError(ServingError, ValueError):
    """A serving query is malformed (bad index, mode, or k)."""


class ServingOverloadError(ServingError):
    """The server shed this request: its queue is at capacity.

    Shedding is graceful-degradation by design — a bounded queue keeps
    admitted requests' latency predictable, and callers get a typed
    error they can back off on instead of an unbounded wait.
    """

    def __init__(self, study: str, depth: int, limit: int, kind: str):
        super().__init__(
            f"study {study!r} queue is full ({depth} >= {limit}); "
            "request shed"
        )
        self.study = study
        self.depth = depth
        self.limit = limit
        #: The query kind that was shed (``point``, ``slice``, ...).
        self.kind = kind

    def __reduce__(self):
        return (
            self.__class__, (self.study, self.depth, self.limit, self.kind)
        )


class ExperimentError(ReproError, RuntimeError):
    """An experiment runner was given an invalid configuration."""


class BenchError(ReproError, RuntimeError):
    """The benchmark harness hit an invalid workload, document, or
    comparison (unknown suite, malformed BENCH_*.json, schema drift)."""


class SLOConfigError(ReproError, ValueError):
    """An SLO objective file is malformed (unknown stat/op, missing
    fields, non-JSON content)."""


class CampaignError(ReproError, RuntimeError):
    """A campaign orchestration failure (see subclasses)."""


class CampaignSpecError(CampaignError, ValueError):
    """A campaign spec is malformed.  Carries the offending ``field``
    so CLI and tests can point at the exact knob, never a bare
    ``KeyError``."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.detail = message

    def __reduce__(self):
        return (self.__class__, (self.field, self.detail))


class CampaignStateError(CampaignError):
    """A campaign's persisted journal cannot be used as asked (running
    over existing progress, resuming a finished campaign, fingerprint
    mismatch between journal and spec)."""
