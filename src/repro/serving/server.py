"""The asyncio serving front-end: batching, shedding, instrumentation.

One :class:`ServingServer` fronts a :class:`~repro.serving.catalog.
StudyCatalog`.  Every registered study gets its own request deque and
drain task, so tenants never share a queue (matching the sharded store
layout underneath).  A request takes one hop: the awaiting
``point``/``slice``/``topk`` coroutine validates it, appends it to its
study's deque and sets the idle drain's wake-up future, then awaits the
request's own future.  The drain is where batching happens: it waits
for the first request, then greedily takes whatever else has already
queued (up to ``max_batch``) and coalesces all *point* requests in the
drained run into **one** batched core×factor-rows contraction, and the
*slice* requests into one
:meth:`~repro.serving.engine.FactorEngine.slice_planes` per sliced
mode: the core is projected through the other factors once per mode,
each distinct hyperplane on that mode is computed once, and
every request for it is answered with a read-only view of that one
plane (requests share it; no client can alter another's answer).  Under
concurrent clients this turns N event-loop round-trips into
N/``max_batch`` numpy calls — the batched-vs-unbatched benchmark in
``BENCH_serving.json`` measures exactly this win.

Queries are validated once, at submit, in plain Python: a point's
coordinates, a slice's mode/index and top-k's k/mode/index each go
through :func:`~repro.serving.engine._as_index` (a bool, a string, a
non-finite or fractional float, or a sequence is a
:class:`~repro.exceptions.QueryError`), and a point is queued as a
tuple of in-range ints; the drain contracts one ``(B, N)`` array of
those tuples without checking them again.  After its numpy work a drain
*settles* once: one latency observation list, one served increment,
then every answer in request order.  Latency is thus observed when the
drain settles, which is when the waiting clients can resume; a failed
request is failed on its own, at once.

Overload is shed, not queued: a request arriving at a full study queue
fails immediately with the typed
:class:`~repro.exceptions.ServingOverloadError`, keeping admitted
requests' latency bounded.  Every stage is metered — queue wait,
batch size, per-query latency (histograms ⇒ p50/p90/p99), shed and
served counters, factor-cache hit rate — and the ``serving.query``
fault-injection site fires once per drained batch so the chaos suite
can drive raise/delay faults through the full client-visible path.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Awaitable, Deque, Dict, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..exceptions import (
    ReproError,
    ServingError,
    ServingOverloadError,
)
from ..faults.injector import get_injector
from ..observability import get_metrics, span as _span
from .catalog import StudyCatalog
from .engine import _as_index, _check_coords, _check_point, _restricted

_SHUTDOWN = object()
#: A request's ``value`` until its drain has answered it.
_UNSET = object()


class _Request:
    """One queued query; ``future`` carries the answer back.  The drain
    parks a successful answer in ``value`` until it settles."""

    __slots__ = ("kind", "args", "future", "enqueued_at", "value")

    def __init__(
        self, kind: str, args: Tuple, future: "asyncio.Future[Any]",
        enqueued_at: float,
    ):
        self.kind = kind               # "point" | "slice" | "topk"
        self.args = args
        self.future = future
        self.enqueued_at = enqueued_at
        self.value: Any = _UNSET


class _StudyWorker:
    """One tenant's request deque, the future that wakes its idle
    drain, and the drain task."""

    __slots__ = ("loop", "queue", "wakeup", "task", "served", "batches")

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self.loop = loop
        self.queue: Deque[Any] = deque()
        self.wakeup: "Optional[asyncio.Future[None]]" = None
        self.task: "Optional[asyncio.Task[None]]" = None
        self.served = 0
        self.batches = 0

    def put(self, item: Any) -> None:
        self.queue.append(item)
        if self.wakeup is not None:
            self.wakeup.set_result(None)
            self.wakeup = None


@dataclass
class ServerStats:
    """Aggregate counters one server accumulated (see also the
    process metrics registry for histograms)."""

    served: int = 0
    shed: int = 0
    batches: int = 0
    points: int = 0
    slices: int = 0
    topks: int = 0
    errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "served": self.served,
            "shed": self.shed,
            "batches": self.batches,
            "points": self.points,
            "slices": self.slices,
            "topks": self.topks,
            "errors": self.errors,
        }


class ServingServer:
    """Async front-end answering queries from factors, never densely.

    Parameters
    ----------
    catalog:
        The study catalog to serve.
    max_batch:
        Most requests one drain run coalesces.
    max_queue:
        Per-study queue bound; arrivals beyond it are shed with
        :class:`~repro.exceptions.ServingOverloadError`.
    batching:
        ``False`` degrades the drain loop to one request at a time —
        the benchmark's unbatched control, not a production setting.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly.
    """

    def __init__(
        self,
        catalog: StudyCatalog,
        max_batch: int = 64,
        max_queue: int = 4096,
        batching: bool = True,
    ):
        if max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ServingError(f"max_queue must be >= 1, got {max_queue}")
        self.catalog = catalog
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.batching = batching
        self.stats = ServerStats()
        self._workers: Dict[str, _StudyWorker] = {}
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ServingServer":
        self._started = True
        return self

    async def stop(self) -> None:
        """Drain every queue, then stop the workers."""
        self._started = False
        workers = list(self._workers.values())
        self._workers.clear()
        for worker in workers:
            worker.put(_SHUTDOWN)
        for worker in workers:
            await worker.task

    async def __aenter__(self) -> "ServingServer":
        return await self.start()

    async def __aexit__(self, *_exc: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # public query API (the in-process client calls these)
    # ------------------------------------------------------------------
    async def point(self, study: str, index: Sequence[int]) -> float:
        """One cell value from the study's factors."""
        coords = _check_point(self.catalog.entry(study).shape, index)
        return await self._submit(study, "point", (coords,))

    async def point_many(
        self, study: str, indices
    ) -> List[float]:
        """Many cells, enqueued individually (so they coalesce with
        whatever else is in flight), gathered together."""
        coords = _check_coords(self.catalog.entry(study).shape, indices)
        return list(
            await asyncio.gather(*[
                self._submit(study, "point", (row,))
                for row in coords.tolist()
            ])
        )

    async def slice(self, study: str, mode: int, index: int) -> np.ndarray:
        """The dense hyperplane ``mode = index`` of the study."""
        return await self._submit(
            study, "slice", (_as_index(mode, "mode"), _as_index(index, "index"))
        )

    async def topk(
        self,
        study: str,
        k: int,
        mode: Optional[int] = None,
        index: Optional[int] = None,
    ) -> List[Tuple[Tuple[int, ...], float, float, float]]:
        """The study's k worst-explained simulated cells, in the
        hyperplane ``mode = index`` when both are given."""
        _restricted(mode, index)
        return await self._submit(study, "topk", (
            _as_index(k, "k"),
            None if mode is None else _as_index(mode, "mode"),
            None if index is None else _as_index(index, "index"),
        ))

    # ------------------------------------------------------------------
    # queue plumbing
    # ------------------------------------------------------------------
    def _worker_for(self, study: str) -> _StudyWorker:
        worker = self._workers.get(study)
        if worker is None:
            self.catalog.entry(study)  # raises StudyNotFoundError early
            worker = _StudyWorker(asyncio.get_running_loop())
            worker.task = worker.loop.create_task(self._drain(study, worker))
            self._workers[study] = worker
        return worker

    def _submit(
        self, study: str, kind: str, args: Tuple
    ) -> "asyncio.Future[Any]":
        """Admit one validated query: shed it if its study's queue is
        full, else queue it and return the future its drain answers."""
        if not self._started:
            raise ServingError("server is not started")
        worker = self._worker_for(study)
        if len(worker.queue) >= self.max_queue:
            self.stats.shed += 1
            metrics = get_metrics()
            metrics.counter("serving.shed").inc()
            # A shed request waited zero seconds in the queue — record
            # it anyway so queue-wait percentiles (and the SLO shed
            # objectives reading them) see every admission decision,
            # not just the requests that got in.
            metrics.histogram("serving.queue_wait_seconds").observe(0.0)
            raise ServingOverloadError(
                study, len(worker.queue), self.max_queue, kind
            )
        loop = worker.loop
        future = loop.create_future()
        worker.put(_Request(kind, args, future, loop.time()))
        return future

    async def _drain(self, study: str, worker: _StudyWorker) -> None:
        """The per-study worker loop: wait for a request, greedily
        drain, serve, settle."""
        loop = worker.loop
        queue = worker.queue
        while True:
            if not queue:
                worker.wakeup = loop.create_future()
                await worker.wakeup
            first = queue.popleft()
            if first is _SHUTDOWN:
                self._fail_pending(queue)
                return
            batch: List[_Request] = [first]
            shutdown = False
            if self.batching:
                while queue and len(batch) < self.max_batch:
                    item = queue.popleft()
                    if item is _SHUTDOWN:
                        shutdown = True
                        break
                    batch.append(item)
            metrics = get_metrics()
            now = loop.time()
            metrics.histogram("serving.queue_wait_seconds").observe_many(
                [now - request.enqueued_at for request in batch]
            )
            try:
                self._serve_batch(study, batch, loop, metrics)
                self._settle(study, batch, loop, metrics)
            except Exception as exc:  # noqa: BLE001 — a worker must
                # never die with futures in flight: clients would hang.
                failure = ServingError(f"internal serving failure: {exc}")
                failure.__cause__ = exc
                for request in batch:
                    if not request.future.done():
                        self._fail(request, failure, loop, metrics)
            # Let the clients whose futures just resolved run before
            # the next drain — keeps latency flat under a full queue.
            await asyncio.sleep(0)
            if shutdown:
                self._fail_pending(queue)
                return

    @staticmethod
    def _fail_pending(queue: Deque[Any]) -> None:
        """Fail every request queued behind the shutdown marker."""
        while queue:
            item = queue.popleft()
            if item is not _SHUTDOWN and not item.future.done():
                item.future.set_exception(ServingError("server stopped"))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _serve_batch(
        self, study: str, batch: List[_Request], loop, metrics
    ) -> None:
        """Answer one drain: each success is parked in its request's
        ``value`` for :meth:`_settle`; each failure fails its request
        now."""
        worker = self._workers.get(study)
        if worker is not None:
            worker.batches += 1
        self.stats.batches += 1
        metrics.histogram("serving.batch_size").observe(len(batch))
        points = [r for r in batch if r.kind == "point"]
        slices = [r for r in batch if r.kind == "slice"]
        others = [r for r in batch if r.kind not in ("point", "slice")]
        with _span(
            "serving-batch", "serving", study=study, batch=len(batch),
            points=len(points), slices=len(slices),
        ):
            engine = None
            try:
                injector = get_injector()
                if injector.enabled:
                    kinds = ",".join(
                        sorted({r.kind for r in batch})
                    )
                    injector.fire("serving.query", f"{study}/{kinds}")
                engine = self.catalog.engine(study)
            except ReproError as exc:
                for request in batch:
                    self._fail(request, exc, loop, metrics)
                return
            if points:
                # validated at submit: contract without re-checking
                coords = np.array([r.args[0] for r in points], dtype=np.int64)
                try:
                    values = engine._point_values(coords)
                except ReproError as exc:
                    for request in points:
                        self._fail(request, exc, loop, metrics)
                else:
                    self.stats.points += len(points)
                    for request, value in zip(points, values.tolist()):
                        request.value = value
            self._serve_slices(engine, slices, loop, metrics)
            for request in others:
                try:
                    request.value = self._serve_one(study, engine, request)
                except ReproError as exc:
                    self._fail(request, exc, loop, metrics)

    def _serve_slices(
        self, engine, slices: List[_Request], loop, metrics
    ) -> None:
        """One :meth:`slice_planes` per sliced mode, each request
        answered with the read-only view of its hyperplane's plane; a
        request that fails validation gets its own error and leaves its
        group intact."""
        groups: Dict[int, List[Tuple[_Request, int]]] = {}
        for request in slices:
            try:
                mode, index = engine._check_slice(*request.args)
            except ReproError as exc:
                self._fail(request, exc, loop, metrics)
            else:
                groups.setdefault(mode, []).append((request, index))
        for mode, group in groups.items():
            try:
                planes, which = engine.slice_planes(
                    mode, [i for _r, i in group]
                )
            except ReproError as exc:
                for request, _index in group:
                    self._fail(request, exc, loop, metrics)
            else:
                self.stats.slices += len(group)
                for (request, _index), j in zip(group, which.tolist()):
                    request.value = planes[j]

    def _serve_one(self, study: str, engine, request: _Request) -> Any:
        if request.kind == "topk":
            k, mode, index = request.args
            entry = self.catalog.entry(study)
            store = self.catalog.store_for(study)
            self.stats.topks += 1
            return engine.topk_anomalies(
                store, entry.tensor_name, k, mode=mode, index=index
            )
        raise ServingError(f"unknown request kind {request.kind!r}")

    def _settle(
        self, study: str, batch: List[_Request], loop, metrics
    ) -> None:
        """Hand a drain's answers back at once: one latency observation
        per answer, stamped now (the clients resume when this drain
        yields), one served count (server-wide and for the study), then
        the results in request order."""
        answered = [r for r in batch if r.value is not _UNSET]
        if not answered:
            return
        now = loop.time()
        metrics.histogram("serving.latency_seconds").observe_many(
            [now - r.enqueued_at for r in answered]
        )
        # a cancelled client's future is already done: not served
        live = [r for r in answered if not r.future.done()]
        if live:
            self.stats.served += len(live)
            worker = self._workers.get(study)
            if worker is not None:
                worker.served += len(live)
            metrics.counter("serving.served").inc(len(live))
            for request in live:
                request.future.set_result(request.value)

    def _fail(
        self, request: _Request, error: BaseException, loop, metrics
    ) -> None:
        metrics.histogram("serving.latency_seconds").observe(
            loop.time() - request.enqueued_at
        )
        if request.future.done():  # pragma: no cover - cancelled client
            return
        self.stats.errors += 1
        metrics.counter("serving.errors").inc()
        # Labelled twin: break errors out by exception type so
        # dashboards (and SLO objectives) can tell an overload
        # from a corrupt block from a bad query.
        metrics.counter(f"serving.errors.{type(error).__name__}").inc()
        request.future.set_exception(error)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Operator-facing snapshot: server counters, per-study queue
        state, factor-cache behaviour, latency percentiles."""
        metrics = get_metrics()
        latency = metrics.histogram("serving.latency_seconds")
        return {
            "stats": self.stats.as_dict(),
            "studies": {
                key: {
                    "served": worker.served,
                    "batches": worker.batches,
                    "queue_depth": len(worker.queue),
                }
                for key, worker in self._workers.items()
            },
            "hot_factors": self.catalog.hot_factors.stats.as_dict(),
            "latency_seconds": {
                "p50": latency.percentile(50),
                "p90": latency.percentile(90),
                "p99": latency.percentile(99),
            },
        }


@dataclass
class ServingClient:
    """The in-process client: a thin, typed veneer over the server
    used by tests, benchmarks, and the CLI."""

    server: ServingServer
    study: Optional[str] = field(default=None)

    def _key(self, study: Optional[str]) -> str:
        key = study or self.study
        if not key:
            raise ServingError("no study given and client has no default")
        return key

    # Each method returns the server's coroutine itself, not one more
    # wrapped around it; ``asyncio.create_task`` accepts it all the same.
    def point(self, index, study: Optional[str] = None) -> Awaitable[float]:
        return self.server.point(self._key(study), index)

    def point_many(self, indices, study: Optional[str] = None) -> Awaitable:
        return self.server.point_many(self._key(study), indices)

    def slice(
        self, mode: int, index: int, study: Optional[str] = None
    ) -> Awaitable[np.ndarray]:
        return self.server.slice(self._key(study), mode, index)

    def topk(
        self, k: int, study: Optional[str] = None,
        mode: Optional[int] = None, index: Optional[int] = None,
    ) -> Awaitable:
        return self.server.topk(
            self._key(study), k, mode=mode, index=index
        )
