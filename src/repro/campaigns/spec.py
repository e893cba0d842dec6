"""Declarative campaign specifications.

A :class:`CampaignSpec` is the contract between whoever *wants* an
adaptive simulation campaign and the orchestrator that runs it: which
scenario to drive (a registered dynamical system), how many simulation
cells the whole campaign may charge, how each confirm round spends its
batch, which probe metric the stopping rule watches, and the
success-delta below which another round is not worth its cells.

Specs load from YAML or JSON files (``python -m repro.campaigns run
--spec campaign.yaml``) or plain dicts.  Validation is field-level and
total: every malformed input raises :class:`~repro.exceptions.
CampaignSpecError` naming the offending field — never a bare
``KeyError`` — so a typo in a campaign file is a one-line fix, not a
stack trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from ..exceptions import CampaignSpecError
from ..simulation import SYSTEMS

try:  # pragma: no cover - exercised only where pyyaml is absent
    import yaml as _yaml
except Exception:  # pragma: no cover
    _yaml = None

#: Probe metrics the stopping rule may watch.
METRICS = ("rmse", "max-error")

#: How confirm rounds split their batch across probed cells.
ALLOCATIONS = ("adaptive", "uniform")

#: M2TD factor-stitching variants a campaign may fit with.
VARIANTS = ("avg", "concat", "select")


def _require_int(field: str, value: Any, minimum: Optional[int] = None,
                 maximum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CampaignSpecError(
            field, f"must be an integer, got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise CampaignSpecError(
            field, f"must be >= {minimum}, got {value}"
        )
    if maximum is not None and value > maximum:
        raise CampaignSpecError(
            field, f"must be <= {maximum}, got {value}"
        )
    return int(value)


def _require_float(field: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CampaignSpecError(
            field, f"must be a number, got {value!r}"
        )
    result = float(value)
    if result != result or result in (float("inf"), float("-inf")):
        raise CampaignSpecError(field, f"must be finite, got {value!r}")
    return result


def _require_choice(field: str, value: Any, choices) -> str:
    if not isinstance(value, str):
        raise CampaignSpecError(field, f"must be a string, got {value!r}")
    if value not in choices:
        raise CampaignSpecError(
            field,
            f"unknown value {value!r}; expected one of {sorted(choices)}",
        )
    return value


@dataclass(frozen=True)
class CampaignSpec:
    """One adaptive simulation campaign, declaratively.

    Attributes
    ----------
    scenario:
        Entrypoint: a registered dynamical-system name (see
        ``repro.simulation.SYSTEMS``), e.g. ``"epidemic_seir"``.
    budget:
        Total simulation cells the campaign may charge — probes,
        explore sweep and confirm batches all spend from it.
    batch:
        Simulation cells a confirm round distributes across probed
        candidate configurations.
    success_delta:
        Stopping rule: once a confirm round moves the probe metric by
        less than this (in either direction — probe residuals are
        noisy), the campaign stops ("converged").
    metric:
        Probe metric the stopping rule watches: ``"rmse"`` or
        ``"max-error"`` over each round's probe residuals.
    allocation:
        ``"adaptive"`` spends the batch where per-cell stitched
        reconstruction error is highest; ``"uniform"`` spreads it
        evenly (the control the golden regression beats).
    resolution:
        Parameter-space resolution of the scenario study.
    rank:
        Per-mode Tucker rank of the fitted M2TD models.
    variant:
        M2TD factor-stitching variant (``avg``/``concat``/``select``).
    pivot:
        Pivot mode name for the PF-partition (default time).
    explore_fraction:
        Fraction of each free space the phase-0 explore sweep touches.
    explore_replicates:
        Pivot cells simulated per explored configuration (the "low
        replication" of the explore phase).
    probe_factor:
        Candidate configurations probed per confirm-round batch slot.
    max_rounds:
        Hard cap on confirm rounds.
    seed:
        Base RNG seed; every round's draws derive from it.
    name:
        Campaign id used in spans, fault targets and reports
        (defaults to ``"<scenario>-campaign"``).
    """

    scenario: str
    budget: int
    batch: int
    success_delta: float
    metric: str = "rmse"
    allocation: str = "adaptive"
    resolution: int = 6
    rank: int = 2
    variant: str = "select"
    pivot: str = "t"
    explore_fraction: float = 0.25
    explore_replicates: int = 2
    probe_factor: int = 3
    max_rounds: int = 12
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        _require_choice("scenario", self.scenario, SYSTEMS)
        _require_int("budget", self.budget, minimum=1)
        _require_int("batch", self.batch, minimum=1)
        if self.batch > self.budget:
            raise CampaignSpecError(
                "batch",
                f"round batch {self.batch} exceeds the total budget "
                f"{self.budget}",
            )
        delta = _require_float("success_delta", self.success_delta)
        if delta < 0:
            raise CampaignSpecError(
                "success_delta", f"must be >= 0, got {delta}"
            )
        _require_choice("metric", self.metric, METRICS)
        _require_choice("allocation", self.allocation, ALLOCATIONS)
        _require_int("resolution", self.resolution, minimum=2)
        _require_int("rank", self.rank, minimum=1)
        _require_choice("variant", self.variant, VARIANTS)
        if not isinstance(self.pivot, str) or not self.pivot:
            raise CampaignSpecError(
                "pivot", f"must be a non-empty string, got {self.pivot!r}"
            )
        fraction = _require_float("explore_fraction", self.explore_fraction)
        if not 0.0 < fraction <= 1.0:
            raise CampaignSpecError(
                "explore_fraction", f"must be in (0, 1], got {fraction}"
            )
        _require_int("explore_replicates", self.explore_replicates,
                     minimum=1)
        _require_int("probe_factor", self.probe_factor, minimum=1)
        _require_int("max_rounds", self.max_rounds, minimum=1)
        _require_int("seed", self.seed, minimum=0)
        if not isinstance(self.name, str):
            raise CampaignSpecError(
                "name", f"must be a string, got {self.name!r}"
            )
        if not self.name:
            object.__setattr__(self, "name", f"{self.scenario}-campaign")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Any, source: str = "spec") -> "CampaignSpec":
        """Build and validate a spec from a plain mapping."""
        if not isinstance(payload, dict):
            raise CampaignSpecError(
                source,
                "campaign spec must be a mapping of fields, got "
                f"{type(payload).__name__}",
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise CampaignSpecError(
                unknown[0],
                f"unknown field (known fields: {sorted(known)})",
            )
        for required in ("scenario", "budget", "batch", "success_delta"):
            if required not in payload:
                raise CampaignSpecError(
                    required, "missing required field"
                )
        return cls(**payload)

    @classmethod
    def from_file(cls, path: str) -> "CampaignSpec":
        """Load a YAML or JSON campaign file."""
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            raise CampaignSpecError(str(path), f"unreadable: {exc}") from exc
        lowered = str(path).lower()
        if lowered.endswith((".yaml", ".yml")):
            payload = cls._parse_yaml(path, text)
        elif lowered.endswith(".json"):
            payload = cls._parse_json(path, text)
        else:
            # Unknown extension: JSON first (a strict subset), then YAML.
            try:
                payload = cls._parse_json(path, text)
            except CampaignSpecError:
                payload = cls._parse_yaml(path, text)
        return cls.from_dict(payload, source=str(path))

    @staticmethod
    def _parse_json(path: str, text: str) -> Any:
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignSpecError(
                str(path), f"not valid JSON: {exc}"
            ) from exc

    @staticmethod
    def _parse_yaml(path: str, text: str) -> Any:
        if _yaml is None:
            raise CampaignSpecError(
                str(path),
                "pyyaml is not installed; use a JSON campaign file",
            )
        try:
            return _yaml.safe_load(text)
        except _yaml.YAMLError as exc:
            raise CampaignSpecError(
                str(path), f"not valid YAML: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def fingerprint(self) -> str:
        """Stable content hash: two runs of the same spec share cache
        entries and journals; any knob change separates them."""
        from ..runtime.cache import fingerprint

        return fingerprint("campaign-spec", tuple(sorted(
            (k, v) for k, v in self.as_dict().items()
        )))
