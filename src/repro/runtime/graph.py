"""Task graphs: named tasks, explicit dependencies, topological order.

A :class:`TaskGraph` is the declarative half of the runtime — it says
*what* must run and in which partial order, while the scheduler
(:mod:`repro.runtime.scheduler`) decides *where* (which executor) and
*whether* (cache hits skip execution entirely).

Dependencies come from two places and are merged:

* explicit ``deps=("other-task",)`` edges, and
* :class:`TaskOutput` placeholders inside ``args``/``kwargs`` — when a
  task lists ``output("truth")`` as an argument, the scheduler
  substitutes the finished value of task ``"truth"`` before calling
  the function (and adds the edge automatically).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import TaskGraphError
from .retry import RetryPolicy

#: Executor affinities a task may declare.  ``"inline"`` runs on the
#: scheduling thread, ``"thread"`` suits GIL-releasing numpy/LAPACK
#: work, and ``"any"`` lets the scheduler pick its default.
AFFINITIES = ("any", "inline", "thread")


@dataclass(frozen=True)
class TaskOutput:
    """Placeholder for another task's result inside ``args``/``kwargs``."""

    task_name: str


def output(task_name: str) -> TaskOutput:
    """Reference the (future) result of ``task_name`` as an argument."""
    return TaskOutput(task_name)


@dataclass
class Task:
    """One node of the graph.

    Attributes
    ----------
    name:
        Unique task id within the graph.
    fn:
        The callable; invoked as ``fn(*args, **kwargs)`` with every
        :class:`TaskOutput` placeholder replaced by the dependency's
        result.
    deps:
        Names of tasks that must finish first (union of explicit deps
        and placeholder references).
    affinity:
        Which executor kind the task prefers (see :data:`AFFINITIES`).
    cache_key:
        Hashable payload describing the task's inputs.  ``None``
        disables caching; otherwise the result is stored under a
        fingerprint of ``cache_scope`` + ``cache_key``.
    cache_scope:
        Stable namespace for the cache fingerprint (defaults to the
        task name — override when graph-unique names should share
        cache entries, e.g. ``"ground-truth"``).
    retry:
        Per-task retry policy (scheduler default when ``None``).
    """

    name: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    deps: Tuple[str, ...] = ()
    affinity: str = "any"
    cache_key: Optional[Any] = None
    cache_scope: Optional[str] = None
    retry: Optional[RetryPolicy] = None

    @property
    def cache_namespace(self) -> str:
        return self.cache_scope if self.cache_scope is not None else self.name

    def referenced_outputs(self) -> List[str]:
        """Task names referenced via placeholders in args/kwargs."""
        names = []
        for value in list(self.args) + list(self.kwargs.values()):
            if isinstance(value, TaskOutput):
                names.append(value.task_name)
        return names


class TaskGraph:
    """A DAG of named tasks with deterministic topological scheduling."""

    def __init__(self) -> None:
        self._tasks: Dict[str, Task] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(
        self,
        name: str,
        fn: Callable[..., Any],
        *args: Any,
        deps: Sequence[str] = (),
        affinity: str = "any",
        cache_key: Optional[Any] = None,
        cache_scope: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        **kwargs: Any,
    ) -> str:
        """Add a task; returns its name (handy for chaining deps)."""
        if not name:
            raise TaskGraphError("task name must be non-empty")
        if name in self._tasks:
            raise TaskGraphError(f"duplicate task name {name!r}")
        if affinity not in AFFINITIES:
            raise TaskGraphError(
                f"task {name!r}: affinity must be one of {AFFINITIES}, "
                f"got {affinity!r}"
            )
        if not callable(fn):
            raise TaskGraphError(f"task {name!r}: fn must be callable")
        task = Task(
            name=name,
            fn=fn,
            args=tuple(args),
            kwargs=dict(kwargs),
            affinity=affinity,
            cache_key=cache_key,
            cache_scope=cache_scope,
            retry=retry,
        )
        merged = list(dict.fromkeys(list(deps) + task.referenced_outputs()))
        task.deps = tuple(merged)
        self._tasks[name] = task
        return name

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def task(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise TaskGraphError(f"unknown task {name!r}") from None

    @property
    def names(self) -> List[str]:
        """Task names in insertion order."""
        return list(self._tasks)

    def dependents(self) -> Mapping[str, List[str]]:
        """Reverse adjacency: task -> tasks that depend on it."""
        reverse: Dict[str, List[str]] = {name: [] for name in self._tasks}
        for task in self._tasks.values():
            for dep in task.deps:
                if dep in reverse:
                    reverse[dep].append(task.name)
        return reverse

    # ------------------------------------------------------------------
    # validation / ordering
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`TaskGraphError` on unknown deps or cycles."""
        for task in self._tasks.values():
            for dep in task.deps:
                if dep not in self._tasks:
                    raise TaskGraphError(
                        f"task {task.name!r} depends on unknown task {dep!r}"
                    )
        self.topological_order()

    def topological_order(self) -> List[str]:
        """Kahn's algorithm; insertion order breaks ties, so the order
        is deterministic for a given construction sequence."""
        indegree = {
            name: sum(1 for d in task.deps if d in self._tasks)
            for name, task in self._tasks.items()
        }
        reverse = self.dependents()
        ready = [name for name in self._tasks if indegree[name] == 0]
        order: List[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for dependent in reverse[name]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self._tasks):
            stuck = sorted(set(self._tasks) - set(order))
            raise TaskGraphError(
                f"task graph has a dependency cycle involving {stuck}"
            )
        return order
