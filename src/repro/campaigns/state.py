"""Campaign persistence: a checksummed, append-only round journal.

Resume-ability comes from one file, ``journal.jsonl`` in the campaign
workdir.  Line one is the header (spec + fingerprint); every later
line is a completed round (or the final stop marker).  Each line is a
``{"sha": ..., "body": ...}`` envelope whose SHA-256 covers the
canonical JSON of the body, which buys two properties:

* **crash-natural truncation** — a kill mid-append leaves a partial
  last line, which fails to parse and is simply dropped: the journal
  is always a valid prefix of the campaign's history;
* **corruption detection** — a bit-flipped line (a rotten disk, or
  the ``campaign.state`` chaos fault) fails its checksum; the valid
  prefix before it survives and the damaged suffix is quarantined and
  recomputed, with the recovery metered.

Round bodies carry *coordinates only*, never simulated values or
timings: values re-read deterministically from the study's (cached)
simulation oracle on replay, and an interrupted-then-resumed campaign
must finish with a journal byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..exceptions import CampaignStateError
from ..faults.injector import get_injector
from ..observability import get_metrics

JOURNAL_VERSION = 1

#: Journal file name inside a campaign workdir.
JOURNAL_NAME = "journal.jsonl"


def _canonical(body: Dict[str, Any]) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _sealed(body: Dict[str, Any]) -> str:
    canonical = _canonical(body)
    sha = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return json.dumps(
        {"sha": sha, "body": body}, sort_keys=True, separators=(",", ":")
    )


def _unseal(line: str) -> Optional[Dict[str, Any]]:
    """Decode one journal line; ``None`` when damaged or truncated."""
    try:
        envelope = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(envelope, dict):
        return None
    body = envelope.get("body")
    sha = envelope.get("sha")
    if not isinstance(body, dict) or not isinstance(sha, str):
        return None
    canonical = _canonical(body)
    if hashlib.sha256(canonical.encode("utf-8")).hexdigest() != sha:
        return None
    return body


@dataclass
class RoundRecord:
    """One completed campaign round, replayable from coordinates."""

    index: int
    phase: str  # "explore" | "confirm"
    probe_pivot: int
    #: Newly simulated cells per sub-system: ``[[free_flat, pivot_flat],
    #: ...]`` — probes and allocated confirm cells alike.
    new_cells: Dict[str, List[List[int]]]
    probe_cost: int
    alloc_cells: int
    metric: float
    spent_after: int
    #: Evaluation-only ground-truth RMSE (present when the orchestrator
    #: runs with ``truth_metrics=True``; never drives decisions).
    truth_rmse: Optional[float] = None

    def body(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": "round",
            "index": self.index,
            "phase": self.phase,
            "probe_pivot": self.probe_pivot,
            "new_cells": self.new_cells,
            "probe_cost": self.probe_cost,
            "alloc_cells": self.alloc_cells,
            "metric": self.metric,
            "spent_after": self.spent_after,
        }
        if self.truth_rmse is not None:
            payload["truth_rmse"] = self.truth_rmse
        return payload

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "RoundRecord":
        return cls(
            index=int(body["index"]),
            phase=str(body["phase"]),
            probe_pivot=int(body["probe_pivot"]),
            new_cells={
                which: [[int(f), int(p)] for f, p in cells]
                for which, cells in body["new_cells"].items()
            },
            probe_cost=int(body["probe_cost"]),
            alloc_cells=int(body["alloc_cells"]),
            metric=float(body["metric"]),
            spent_after=int(body["spent_after"]),
            truth_rmse=(
                float(body["truth_rmse"])
                if "truth_rmse" in body else None
            ),
        )


@dataclass
class JournalState:
    """Everything a resume needs: the valid journal prefix."""

    fingerprint: Optional[str] = None
    spec_payload: Optional[Dict[str, Any]] = None
    rounds: List[RoundRecord] = field(default_factory=list)
    stop_reason: Optional[str] = None
    #: Damaged/truncated lines dropped while reading.
    quarantined: int = 0

    @property
    def done(self) -> bool:
        return self.stop_reason is not None

    @property
    def spent(self) -> int:
        return self.rounds[-1].spent_after if self.rounds else 0


class CampaignJournal:
    """Append-only journal bound to one workdir, or in-memory when
    ``path`` is ``None`` (ephemeral campaigns, e.g. benchmarks).  An
    in-memory journal is never read back, so its lines are not sealed:
    it only records which kinds of line it holds."""

    def __init__(self, path: Optional[str], campaign: str):
        self.path = path
        self.campaign = campaign
        self._lines: List[str] = []

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def load(self) -> JournalState:
        """Read the valid prefix; quarantine anything after damage.

        The ``campaign.state`` fault site fires here (with the journal
        path) so chaos tests can bit-flip the file exactly where a
        rotten disk would; a detected-and-truncated journal counts as
        a recovery because the campaign replays the lost suffix from
        the result cache.
        """
        state = JournalState()
        if self.path is None or not os.path.exists(self.path):
            self._lines = []
            return state
        injector = get_injector()
        if injector.enabled:
            injector.fire("campaign.state", self.campaign, path=self.path)
        with open(self.path, "rb") as handle:
            raw_lines = handle.read().splitlines()
        kept: List[str] = []
        damaged = 0
        for position, raw in enumerate(raw_lines):
            if not raw.strip():
                continue
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                # A bit-flip can corrupt the encoding itself, not just
                # the checksum — same treatment: damage starts here.
                damaged = len(raw_lines) - position
                break
            body = _unseal(line)
            if body is None:
                # Invalid line: everything from here on is suspect —
                # the journal is a strict prefix log.
                damaged = len(raw_lines) - position
                break
            if position == 0:
                if body.get("kind") != "header":
                    raise CampaignStateError(
                        f"journal {self.path} does not start with a "
                        "header line"
                    )
                state.fingerprint = body.get("fingerprint")
                state.spec_payload = body.get("spec")
            elif body.get("kind") == "round":
                state.rounds.append(RoundRecord.from_body(body))
            elif body.get("kind") == "stop":
                state.stop_reason = str(body.get("reason"))
            kept.append(line)
        state.quarantined = damaged
        if damaged:
            get_metrics().counter("campaign.journal_quarantined").inc(
                damaged
            )
            # Rewrite the journal down to its valid prefix so the
            # resumed rounds append cleanly after it.
            self._lines = kept
            self._rewrite()
            injector.note_recovery("campaign.state", self.campaign)
        else:
            self._lines = kept
        return state

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def start(self, fingerprint: str, spec_payload: Dict[str, Any]) -> None:
        """Write the header if this journal is brand new."""
        if self._lines:
            return
        self._append({
            "kind": "header",
            "version": JOURNAL_VERSION,
            "fingerprint": fingerprint,
            "spec": spec_payload,
        })

    def append_round(self, record: RoundRecord) -> None:
        self._append(record.body())

    def append_stop(self, reason: str, spent: int, metric: float) -> None:
        self._append({
            "kind": "stop",
            "reason": reason,
            "spent": spent,
            "metric": metric,
        })

    def _append(self, body: Dict[str, Any]) -> None:
        if self.path is None:
            self._lines.append(body["kind"])
            return
        line = _sealed(body)
        self._lines.append(line)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _rewrite(self) -> None:
        if self.path is None:
            return
        temporary = f"{self.path}.tmp-{os.getpid()}"
        with open(temporary, "w") as handle:
            for line in self._lines:
                handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, self.path)


def journal_path(workdir: Optional[str]) -> Optional[str]:
    if workdir is None:
        return None
    return os.path.join(workdir, JOURNAL_NAME)


def read_journal(
    workdir: str, campaign: str = "*"
) -> Tuple[JournalState, CampaignJournal]:
    """Open and load a workdir's journal (CLI ``report``/``resume``)."""
    journal = CampaignJournal(journal_path(workdir), campaign)
    return journal.load(), journal
