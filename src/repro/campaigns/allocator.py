"""Error-proportional budget allocation for confirm rounds.

:func:`allocate` answers one question each confirm round: given the
per-cell stitched-reconstruction errors of the probed candidate
configurations, how should the round's batch of simulation cells be
split among them?  The answer is a largest-remainder apportionment of
the batch over the error weights, with a contract the property suite
pins down:

* allocations are non-negative integers;
* they sum *exactly* to the round batch (clamped to the remaining
  budget and, when capacities are given, to the total capacity);
* they are monotone in error — a higher-error candidate never
  receives fewer cells than a lower-error one (capacity caps aside);
* all-equal (including all-zero) errors degrade to an even split.

Largest-remainder keeps monotonicity because quotas are monotone in
weight, floors are monotone in quotas, and the leftover cells go out
in (remainder, weight)-lexicographic order — a candidate with the
larger weight always sorts at or before one with a smaller weight.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..exceptions import CampaignError


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer shares of ``total`` proportional to ``weights``."""
    with np.errstate(over="ignore"):
        mass = float(weights.sum())
    if mass <= 0.0:
        weights = np.ones_like(weights)
        mass = float(weights.sum())
    elif not math.isfinite(mass) or not math.isfinite(
        total * float(weights.max())
    ):
        # Weights near the float maximum overflow the sum or a quota;
        # relative to the largest they keep their order and ratios.
        weights = weights / weights.max()
        mass = float(weights.sum())
    quotas = total * weights / mass
    shares = np.floor(quotas).astype(np.int64)
    leftover = int(total - shares.sum())
    if leftover > 0:
        remainders = quotas - shares
        # Ties on remainder break toward the larger weight, then the
        # earlier index — deterministic AND monotone.
        order = np.lexsort(
            (np.arange(weights.shape[0]), -weights, -remainders)
        )
        shares[order[:leftover]] += 1
    return shares


def allocate(
    errors: Sequence[float],
    batch: int,
    remaining_budget: Optional[int] = None,
    capacities: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Split ``batch`` simulation cells across candidates by error.

    Parameters
    ----------
    errors:
        Non-negative per-candidate model-mismatch scores.
    batch:
        Cells this round wants to spend.
    remaining_budget:
        Cells the campaign may still charge; the effective batch is
        clamped so the budget is never exceeded.
    capacities:
        Per-candidate caps (uncovered cells left in the candidate's
        fiber).  Overflow beyond a cap is re-apportioned among the
        candidates with headroom.

    Returns
    -------
    numpy.ndarray
        Integer allocation per candidate.
    """
    scores = np.asarray(errors, dtype=float)
    if scores.ndim != 1:
        raise CampaignError(
            f"errors must be one-dimensional, got shape {scores.shape}"
        )
    if scores.size and (
        not np.isfinite(scores).all() or (scores < 0).any()
    ):
        raise CampaignError("errors must be non-negative and finite")
    batch = int(batch)
    if batch < 0:
        raise CampaignError(f"batch must be >= 0, got {batch}")
    if remaining_budget is not None:
        batch = min(batch, max(0, int(remaining_budget)))
    allocation = np.zeros(scores.shape[0], dtype=np.int64)
    if scores.size == 0 or batch == 0:
        return allocation
    if capacities is None:
        caps = np.full(scores.shape[0], batch, dtype=np.int64)
    else:
        caps = np.asarray(capacities, dtype=np.int64)
        if caps.shape != scores.shape:
            raise CampaignError(
                f"capacities shape {caps.shape} does not match errors "
                f"shape {scores.shape}"
            )
        if (caps < 0).any():
            raise CampaignError("capacities must be non-negative")
    batch = min(batch, int(caps.sum()))
    while batch > 0:
        active = allocation < caps
        if not active.any():
            break
        shares = _largest_remainder(scores[active], batch)
        headroom = caps[active] - allocation[active]
        granted = np.minimum(shares, headroom)
        allocation[active] += granted
        batch -= int(granted.sum())
    return allocation
