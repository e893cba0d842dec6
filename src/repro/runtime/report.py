"""Per-task metrics and the roll-up report for one graph run.

The runtime's observability story mirrors the MapReduce engine's
:class:`~repro.distributed.mapreduce.TaskStats`: every task records
where it ran, how long it took (summed across retry attempts), whether
the cache served it, and how many bytes its result charged to the
cache — so a study driver can print exactly where the wall-clock and
the cache budget went.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class TaskMetrics:
    """Accounting for one task of one graph run."""

    name: str
    executor: str = "inline"
    wall_seconds: float = 0.0
    attempts: int = 0
    cache_hit: bool = False
    cached: bool = False
    bytes_cached: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class RuntimeReport:
    """Roll-up of one :class:`~repro.runtime.graph.TaskGraph` run."""

    tasks: List[TaskMetrics] = field(default_factory=list)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_executed(self) -> int:
        """Tasks whose function actually ran (cache misses + uncached)."""
        return sum(1 for t in self.tasks if not t.cache_hit)

    @property
    def cache_hits(self) -> int:
        return sum(1 for t in self.tasks if t.cache_hit)

    @property
    def cache_misses(self) -> int:
        """Cacheable tasks that had to execute."""
        return sum(1 for t in self.tasks if t.cached and not t.cache_hit)

    @property
    def bytes_cached(self) -> int:
        return sum(t.bytes_cached for t in self.tasks)

    @property
    def total_wall_seconds(self) -> float:
        """Summed task compute time (not the elapsed wall-clock, which
        is lower when executors overlap tasks)."""
        return sum(t.wall_seconds for t in self.tasks)

    @property
    def total_attempts(self) -> int:
        return sum(t.attempts for t in self.tasks)

    def task(self, name: str) -> TaskMetrics:
        for metrics in self.tasks:
            if metrics.name == name:
                return metrics
        raise KeyError(f"no metrics recorded for task {name!r}")

    def merge(self, other: "RuntimeReport") -> None:
        """Fold another run's metrics into this report."""
        self.tasks.extend(other.tasks)

    def summary(self) -> Dict[str, Any]:
        return {
            "tasks": self.n_tasks,
            "executed": self.n_executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "bytes_cached": self.bytes_cached,
            "compute_seconds": self.total_wall_seconds,
        }

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Plain-text table, one row per task plus a totals line."""
        headers = ["task", "executor", "seconds", "attempts", "cache", "bytes"]
        rows = []
        for t in self.tasks:
            cache = "hit" if t.cache_hit else ("miss" if t.cached else "-")
            if t.error is not None:
                cache = "error"
            rows.append(
                [
                    t.name,
                    t.executor,
                    f"{t.wall_seconds:.3f}",
                    str(t.attempts),
                    cache,
                    str(t.bytes_cached),
                ]
            )
        rows.append(
            [
                "TOTAL",
                "",
                f"{self.total_wall_seconds:.3f}",
                str(self.total_attempts),
                f"{self.cache_hits}h/{self.cache_misses}m",
                str(self.bytes_cached),
            ]
        )
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows))
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines.extend(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows
        )
        return "\n".join(lines)
