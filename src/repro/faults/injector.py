"""The fault injector: deterministic decisions, applied effects,
recovery accounting.

One :class:`FaultInjector` executes one :class:`~repro.faults.plan.
FaultPlan` for one run.  Injection points across the stack call
:func:`get_injector` and, when faulting is active, ask it to act:

* ``wrap_callable(site, target, fn)`` — used where the *caller* must
  not blow up (the task-graph scheduler, executor submission): the
  decision is taken immediately, but the effect fires inside the
  returned callable, on whichever worker runs it, so retry machinery
  sees an ordinary task failure.
* ``fire(site, target, path=...)`` — used inside tasks and around
  file reads: raises / sleeps / bit-flips the file on the spot.
* ``note_recovery(site, target)`` — called by the layer that healed
  (a retry that succeeded, a cache that quarantined-and-recomputed);
  ticks ``faults.recovered`` and the recovery-latency histogram when
  a pending fault matches.

The default injector is :data:`NULL_INJECTOR` (``enabled = False``):
every hook is a cheap attribute check, so production runs pay nothing.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..exceptions import FaultInjectionError, WorkerCrashError
from ..observability import get_metrics
from .plan import FaultPlan, FaultSpec

__all__ = [
    "FaultInjector",
    "InjectionRecord",
    "NULL_INJECTOR",
    "NullInjector",
    "get_injector",
    "set_injector",
    "use_injector",
]


@dataclass
class InjectionRecord:
    """One fault that actually fired, plus its (eventual) recovery."""

    fault_id: str
    site: str
    target: str
    kind: str
    hit: int
    injected_at: float = field(default_factory=time.monotonic)
    recovered: bool = False
    recovery_seconds: Optional[float] = None


@dataclass(frozen=True)
class FaultDecision:
    """An armed fault for one specific event."""

    spec: FaultSpec
    hit: int

    @property
    def kind(self) -> str:
        return self.spec.kind


class _FaultedCall:
    """A task callable with a fault effect baked in.

    Module-level and built from plain data so it survives pickling to
    a worker process; the effect fires where the task runs, which lets
    the scheduler's retry machinery treat it like any other
    task failure.
    """

    def __init__(self, site: str, target: str, fault_id: str, kind: str,
                 message: str, delay_seconds: float,
                 fn: Callable[..., Any]):
        self.site = site
        self.target = target
        self.fault_id = fault_id
        self.kind = kind
        self.message = message
        self.delay_seconds = delay_seconds
        self.fn = fn

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        if self.kind == "crash-worker":
            raise WorkerCrashError(
                self.site, self.target, self.fault_id,
                self.message or "worker crashed",
            )
        if self.kind == "raise":
            raise FaultInjectionError(
                self.site, self.target, self.fault_id, self.message
            )
        if self.kind == "delay":
            time.sleep(self.delay_seconds)
        return self.fn(*args, **kwargs)


def _flip_bytes(path, offsets: Tuple[float, ...] = (0.4, 0.6, 0.8)) -> None:
    """Bit-flip a few bytes of ``path`` in place (real corruption, so
    detection exercises the same checksum machinery as a rotten disk)."""
    size = os.path.getsize(path)
    if size == 0:
        return
    with open(path, "r+b") as handle:
        for fraction in offsets:
            position = min(size - 1, int(size * fraction))
            handle.seek(position)
            byte = handle.read(1)
            handle.seek(position)
            handle.write(bytes([byte[0] ^ 0xFF]))


class NullInjector:
    """No faults, no bookkeeping, no overhead."""

    enabled = False
    plan: Optional[FaultPlan] = None

    @property
    def records(self) -> List[InjectionRecord]:
        return []

    def decide(self, site: str, target: str) -> None:
        return None

    def fire(self, site: str, target: str, path=None) -> None:
        return None

    def wrap_callable(
        self, site: str, target: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        return fn

    def note_recovery(self, site: str, target: str) -> None:
        return None

    def summary(self) -> Dict[str, int]:
        return {"injected": 0, "recovered": 0}


class FaultInjector:
    """Execute a :class:`FaultPlan`: decide, apply, account.

    Decisions are consumed — a ``times=1`` spec fires once per
    injector, so chaos tests build a fresh injector per run to replay
    the same schedule.  All bookkeeping is lock-guarded; determinism
    under threads holds whenever targets are exact ids (the chaos
    suite's idiom).  Wildcard targets with ``probability < 1`` are
    deterministic per *match ordinal*, which is only stable when the
    matching events themselves arrive in a stable order.
    """

    enabled = True

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.records: List[InjectionRecord] = []
        self._matches: Dict[str, int] = {}
        self._pending: Dict[Tuple[str, str], InjectionRecord] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def decide(self, site: str, target: str) -> Optional[FaultDecision]:
        """Arm the first matching spec with budget left, if any.

        Ticks ``faults.injected`` and remembers the fault as pending
        recovery (except pure delays, which need none).
        """
        target = str(target)
        for spec in self.plan.for_site(site):
            if not spec.matches(target):
                continue
            with self._lock:
                ordinal = self._matches.get(spec.fault_id, 0) + 1
                self._matches[spec.fault_id] = ordinal
                if ordinal <= spec.after:
                    continue
                hit = ordinal - spec.after
                if spec.times is not None and hit > spec.times:
                    continue
                if not self.plan.chance(spec, ordinal):
                    continue
                record = InjectionRecord(
                    fault_id=spec.fault_id, site=site, target=target,
                    kind=spec.kind, hit=hit,
                )
                self.records.append(record)
                if spec.kind != "delay":
                    self._pending[(site, target)] = record
            get_metrics().counter("faults.injected").inc()
            return FaultDecision(spec=spec, hit=hit)
        return None

    # ------------------------------------------------------------------
    # effects
    # ------------------------------------------------------------------
    def fire(self, site: str, target: str, path=None
             ) -> Optional[FaultDecision]:
        """Decide and apply the effect on the spot.

        ``raise``/``crash-worker`` raise; ``delay`` sleeps; ``corrupt``
        bit-flips ``path`` (when given) so the caller's own integrity
        checking must catch it; ``drop-output`` is returned to the
        caller, which owns the discarding.
        """
        decision = self.decide(site, target)
        if decision is None:
            return None
        spec = decision.spec
        if spec.kind == "crash-worker":
            raise WorkerCrashError(
                site, target, spec.fault_id,
                spec.message or "worker crashed",
            )
        if spec.kind == "raise":
            raise FaultInjectionError(site, target, spec.fault_id,
                                      spec.message)
        if spec.kind == "delay":
            time.sleep(spec.delay_seconds)
        elif spec.kind == "corrupt" and path is not None and os.path.exists(
            path
        ):
            _flip_bytes(path)
        return decision

    def wrap_callable(
        self, site: str, target: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        """Decide now, fail later: the effect fires when the returned
        callable runs (on its executor), not at the call site."""
        decision = self.decide(site, target)
        if decision is None:
            return fn
        spec = decision.spec
        return _FaultedCall(
            site, str(target), spec.fault_id, spec.kind, spec.message,
            spec.delay_seconds, fn,
        )

    # ------------------------------------------------------------------
    # recovery accounting
    # ------------------------------------------------------------------
    def note_recovery(self, site: str, target: str) -> None:
        """The layer that healed reports back; a no-op unless a fault
        is pending for exactly this ``(site, target)``."""
        with self._lock:
            record = self._pending.pop((site, str(target)), None)
        if record is None:
            return
        record.recovered = True
        record.recovery_seconds = time.monotonic() - record.injected_at
        metrics = get_metrics()
        metrics.counter("faults.recovered").inc()
        metrics.histogram("faults.recovery_seconds").observe(
            record.recovery_seconds
        )

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        with self._lock:
            injected = len(self.records)
            recovered = sum(1 for r in self.records if r.recovered)
        return {"injected": injected, "recovered": recovered}


#: The process-wide default: faulting off.
NULL_INJECTOR = NullInjector()

_active: Any = NULL_INJECTOR


def get_injector():
    """The active injector (:data:`NULL_INJECTOR` unless installed)."""
    return _active


def set_injector(injector=None) -> None:
    """Install ``injector`` process-wide (``None`` restores the null)."""
    global _active
    _active = injector if injector is not None else NULL_INJECTOR


class use_injector:
    """``with use_injector(FaultInjector(plan)): ...`` — scoped install."""

    def __init__(self, injector):
        self.injector = injector
        self._previous = None

    def __enter__(self):
        global _active
        self._previous = _active
        _active = self.injector
        return self.injector

    def __exit__(self, *exc_info: Any) -> None:
        global _active
        _active = self._previous
