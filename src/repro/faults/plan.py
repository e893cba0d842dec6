"""Declarative fault schedules: what breaks, where, and how often.

A :class:`FaultPlan` is a seedable, JSON-serialisable schedule of
:class:`FaultSpec` entries.  Each spec names an injection *site* (a
fixed instrumentation point in the stack), a glob over *target* ids
(task names, MapReduce task ids, cache fingerprints, ``tensor/block``
ids), a fault *kind*, and a budget saying how many matching events to
fault.  Determinism is the whole point: the same plan + seed produces
the same faults at the same events, so any chaos failure seen in CI is
reproducible locally from two values (see ``docs/fault-injection.md``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..exceptions import ReproError


class FaultPlanError(ReproError, ValueError):
    """A fault plan or spec is malformed (unknown site/kind, illegal
    combination, bad budget)."""


#: Instrumentation points threaded through the stack.
SITES: Tuple[str, ...] = (
    "runtime.task",       # task-graph scheduler; target = task name
    "executor.submit",    # executor venues; target = executor kind
    "mapreduce.map",      # map tasks; target = e.g. "map-0"
    "mapreduce.reduce",   # reduce tasks; target = e.g. "reduce-1"
    "cache.read",         # result-cache disk reads; target = fingerprint
    "storage.block-read",  # block store reads; target = "tensor/(i, j)"
    "serving.query",       # serving requests; target = "study/kind"
    "worker.spawn",        # worker (re)spawns; target = e.g. "worker-0"
    "worker.heartbeat",    # worker heartbeat loops; target = worker id
    "worker.result",       # worker task replies; target = task id
    "observability.telemetry",  # telemetry snapshot in a reply;
                                # target = task id — costs visibility
                                # (supervisor-side-only spans), never
                                # the task
    "campaign.round",      # campaign round boundary; target =
                           # "<campaign>/round-<n>" — an injected
                           # raise/crash kills the run mid-campaign,
                           # which `campaigns resume` must heal
    "campaign.state",      # campaign journal reads; target = campaign
                           # name — corrupt bit-flips the journal so
                           # resume's per-line checksums must
                           # quarantine the damage
)

#: Fault kinds a spec may request.
KINDS: Tuple[str, ...] = (
    "raise",         # the event raises FaultInjectionError
    "crash-worker",  # simulated crash in-process; at worker.* sites a
                     # REAL one — SIGKILL of the live worker process
    "delay",         # the event stalls for delay_seconds (straggler;
                     # at worker.heartbeat: the beat loop goes silent)
    "corrupt",       # the backing file — or a worker's reply bytes —
                     # is bit-flipped before the read
    "drop-output",   # a map task's output is discarded after it ran;
                     # at worker.result: the reply is never sent
)

#: Which kinds are meaningful at which sites.
_KIND_SITES: Dict[str, Tuple[str, ...]] = {
    "raise": SITES,
    "delay": SITES,
    "crash-worker": (
        "runtime.task", "executor.submit", "mapreduce.map",
        "mapreduce.reduce", "worker.spawn", "worker.heartbeat",
        "campaign.round",
    ),
    "corrupt": (
        "cache.read", "storage.block-read", "worker.result", "observability.telemetry", "campaign.state",
    ),
    "drop-output": (
        "mapreduce.map", "worker.result", "observability.telemetry",
    ),
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes
    ----------
    site:
        Injection point (one of :data:`SITES`).
    kind:
        What happens (one of :data:`KINDS`).
    target:
        ``fnmatch``-style glob the event's target id must match
        (``"*"`` matches every event at the site).
    times:
        How many matching events to fault (``None`` = every one).
    after:
        Skip this many matching events before the first injection —
        e.g. ``after=1, times=1`` faults only the second occurrence.
    probability:
        Chance each eligible event actually faults.  Decided by a
        stateless hash of ``(plan seed, fault id, event ordinal)``, so
        it is reproducible and independent of thread interleaving.
    delay_seconds:
        Stall length for ``kind="delay"``.
    message:
        Free-text note carried into the raised error's provenance.
    fault_id:
        Stable id within the plan (auto-assigned ``"fault-N"``).
    """

    site: str
    kind: str
    target: str = "*"
    times: Optional[int] = 1
    after: int = 0
    probability: float = 1.0
    delay_seconds: float = 0.05
    message: str = ""
    fault_id: str = ""

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r}; use one of {SITES}"
            )
        if self.kind not in KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; use one of {KINDS}"
            )
        if self.site not in _KIND_SITES[self.kind]:
            raise FaultPlanError(
                f"fault kind {self.kind!r} is not injectable at site "
                f"{self.site!r} (valid sites: {_KIND_SITES[self.kind]})"
            )
        if self.times is not None and self.times < 1:
            raise FaultPlanError(
                f"times must be >= 1 or null, got {self.times}"
            )
        if self.after < 0:
            raise FaultPlanError(f"after must be >= 0, got {self.after}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.delay_seconds < 0:
            raise FaultPlanError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )

    def matches(self, target: str) -> bool:
        return fnmatchcase(target, self.target)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "site": self.site,
            "kind": self.kind,
            "target": self.target,
            "times": self.times,
        }
        if self.after:
            record["after"] = self.after
        if self.probability != 1.0:
            record["probability"] = self.probability
        if self.kind == "delay":
            record["delay_seconds"] = self.delay_seconds
        if self.message:
            record["message"] = self.message
        if self.fault_id:
            record["fault_id"] = self.fault_id
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "FaultSpec":
        known = {
            "site", "kind", "target", "times", "after", "probability",
            "delay_seconds", "message", "fault_id",
        }
        unknown = sorted(set(record) - known)
        if unknown:
            raise FaultPlanError(f"unknown fault spec keys: {unknown}")
        try:
            return cls(**record)
        except TypeError as exc:
            raise FaultPlanError(f"bad fault spec {record!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """A seeded collection of fault specs.

    The ``seed`` feeds every probabilistic decision; two injectors
    built from equal plans fire identically.
    """

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    name: str = ""
    _by_site: Dict[str, Tuple[FaultSpec, ...]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        labelled = tuple(
            spec if spec.fault_id
            else replace(spec, fault_id=f"fault-{index}")
            for index, spec in enumerate(self.faults)
        )
        seen: set = set()
        for spec in labelled:
            if spec.fault_id in seen:
                raise FaultPlanError(
                    f"duplicate fault_id {spec.fault_id!r} in plan"
                )
            seen.add(spec.fault_id)
        object.__setattr__(self, "faults", labelled)
        by_site: Dict[str, List[FaultSpec]] = {}
        for spec in labelled:
            by_site.setdefault(spec.site, []).append(spec)
        object.__setattr__(
            self,
            "_by_site",
            {site: tuple(specs) for site, specs in by_site.items()},
        )

    def __len__(self) -> int:
        return len(self.faults)

    def for_site(self, site: str) -> Tuple[FaultSpec, ...]:
        """Specs registered at ``site`` (declaration order)."""
        return self._by_site.get(site, ())

    @property
    def sites(self) -> Tuple[str, ...]:
        """Sites this plan touches — injection points not listed here
        can skip even the decision bookkeeping."""
        return tuple(self._by_site)

    def chance(self, spec: FaultSpec, ordinal: int) -> bool:
        """The deterministic coin flip for ``spec`` at match ``ordinal``.

        Stateless: a SHA-256 over (seed, fault id, ordinal) maps to
        [0, 1), so the outcome depends only on the event's identity —
        never on thread interleaving or Python's hash randomisation.
        """
        if spec.probability >= 1.0:
            return True
        if spec.probability <= 0.0:
            return False
        token = f"{self.seed}:{spec.fault_id}:{ordinal}".encode()
        draw = int.from_bytes(
            hashlib.sha256(token).digest()[:8], "big"
        ) / float(1 << 64)
        return draw < spec.probability

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "version": 1,
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
        }
        if self.name:
            record["name"] = self.name
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "FaultPlan":
        version = record.get("version", 1)
        if version != 1:
            raise FaultPlanError(f"unsupported fault plan version {version}")
        raw_faults = record.get("faults")
        if not isinstance(raw_faults, list):
            raise FaultPlanError("fault plan needs a 'faults' list")
        return cls(
            faults=tuple(FaultSpec.from_dict(f) for f in raw_faults),
            seed=int(record.get("seed", 0)),
            name=str(record.get("name", "")),
        )

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise FaultPlanError(
                f"cannot read fault plan {str(path)!r}: {exc}"
            ) from exc
        return cls.from_dict(record)

    def to_file(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same schedule under a different seed."""
        return replace(self, seed=int(seed))


def plan_of(specs: Iterable[FaultSpec], seed: int = 0,
            name: str = "") -> FaultPlan:
    """Convenience constructor used heavily by the chaos tests."""
    return FaultPlan(faults=tuple(specs), seed=seed, name=name)
