"""The asyncio scheduling daemon (``repro serve``).

One warm process serves many callers over the newline-delimited JSON
protocol of :mod:`repro.service.protocol`, on TCP or a Unix socket.  The
request pipeline, in order:

1. **Framing** — the endpoint core (:mod:`repro.service.endpoint`) binds,
   reads one request per line (an oversized frame gets a 413 response and
   the connection is closed, since line sync is lost) and dispatches
   through the daemon's verbs; ``control`` and the campaign verbs get a
   400 naming the tier that serves them.
2. **Inline ops** — ``health``, ``stats`` and ``metrics`` are answered
   directly on the connection handler, never queued, so they stay
   responsive under overload (that is the point of a health endpoint).
3. **Admission control** — queued ops enter a bounded queue; when it is
   full (or the server is draining) the request is *shed* with a 503-style
   response instead of growing an unbounded backlog.  Shedding is cheap
   and explicit: clients see ``status: "shed"`` and can back off.
4. **Micro-batching** — the dispatcher drains whatever is queued (up to
   ``batch_max``) and groups requests by graph digest.  A group shares one
   decoded :class:`~repro.core.taskgraph.TaskGraph` — and therefore one
   :class:`~repro.core.kernels.GraphIndex` compile — via the size-bounded
   LRU index cache, so the compile cost of a hot graph is paid once, not
   per request.  There is no separate analysis pass over a round's
   distinct graphs: a graph's first op primes its level and
   classification memos, and the cache keeps them with the graph.
5. **Deadlines** — a request's relative ``deadline_ms`` becomes an
   absolute deadline at admission.  Work is refused *before* execution
   when the deadline has already passed (the queued time ate the budget)
   and a result computed *past* the deadline is discarded and reported as
   a 504 — the service-level analogue of the suite runner's per-call
   timeout: late work is reported, never silently served.  A frame that
   arrives while an op runs on the event loop (step 6) is read, and its
   deadline started, when that op ends and before any other op runs on
   the loop: it waits for at most one op whose last run took at most one
   GIL switch interval, the same bound a worker thread holding the GIL
   already puts on every frame read, health reply and deadline check.
   Busy worker threads stretch that op's wall time by their share of the
   GIL, as they stretch all work on the loop.
6. **Execution** — a ``schedule`` or ``classify`` op runs directly on the
   event-loop thread when the same op (same graph digest, heuristic and
   ``improve`` flag) last ran in at most ``sys.getswitchinterval()``
   seconds (5 ms by default).  Only a repeated op on a graph still in the
   index cache qualifies; every other op — a first run, one measured
   slower, ``simulate`` and ``batch`` — runs on the worker thread pool.
   Both paths hold a slot of the same semaphore, sized to the pool.  The
   budget is how long the GIL already lets a worker thread hold off the
   loop thread, so running a known-fast op inline saves the thread hop
   without raising that worst case.  The last measured time lives in the
   graph's index-cache entry: it is bounded by the cache's capacity,
   evicted with the graph, and with the cache off every op takes a
   worker.  An inline op holds the loop's turn, one lock for all groups,
   until the frames that arrived during it have been read and admitted;
   only then is its reply sent and may the next inline op start, so at
   most one inline op runs per loop pass whatever ``--threads`` is.
   ``service.exec.loop`` and ``service.exec.worker`` count the two paths.
   Op handlers are plain library calls over the shared wire codec.  The
   service adds transport, never semantics: a schedule obtained here is
   byte-identical to the same call through the library API.

Observability: every queued request gets RED metrics (``service.requests``
rate, ``service.errors``, a fixed-bucket ``service.latency_ms`` histogram
with p50/p95/p99, per-op ``service.op.*`` timers) and — when the process
tracer is enabled — ``service.queue`` and ``service.<op>`` spans, all
through the :mod:`repro.obs` registries.  The ``metrics`` inline op
exposes the registry in Prometheus text format.  A request frame's
``traceparent`` is adopted as the parent trace context: admission markers,
queue/op spans and everything recorded under the executor (index compile,
scheduler spans) carry the caller's trace id, so one distributed trace
stitches client and server.

Graceful drain: on SIGTERM/SIGINT (or :meth:`ReproServer.begin_drain`) the
core closes the listener; the daemon's part (:meth:`ReproServer._finish`)
rejects queued-but-unstarted requests with ``status: "draining"`` and lets
in-flight requests run to completion and flush their responses; then the
core writes a run manifest via :mod:`repro.obs`, and the process exits 0.
Zero in-flight requests are dropped.
"""

from __future__ import annotations

import asyncio
import marshal
import os
import sys
import threading
from collections import OrderedDict
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from ..clans.decomposition import discard_parse
from ..core import wire
from ..core.exceptions import ReproError
from ..core.kernels import discard_index
from ..core.simulator import simulate_ordered
from ..core.taskgraph import TaskGraph
from ..obs.metrics import DEFAULT_LATENCY_BOUNDS_MS, get_registry
from ..obs.telemetry import (
    TraceContext,
    activate,
    current_context,
    deactivate,
    parse_traceparent,
    use_context,
)
from ..obs.trace import get_tracer
from ..schedulers.base import get_scheduler
from .endpoint import Conn, Endpoint, EndpointThread, run_endpoint
from .protocol import (
    DEADLINE,
    DEFAULT_PORT,
    INTERNAL,
    INVALID,
    MAX_FRAME_BYTES,
    QUEUED_OPS,
    SHED,
    ProtocolError,
    Request,
    classify_result,
    error_response,
    metrics_result,
    ok_response,
    schedule_result,
    simulate_result,
)

__all__ = ["ReproServer", "ServerThread", "run_server", "stats_view"]

#: Queue sentinel telling the dispatcher to exit after the drain flush.
_STOP = object()

#: Upper bound on sub-requests inside one ``batch`` op.
MAX_BATCH_REQUESTS = 1024


@dataclass
class _Item:
    """One admitted queued request."""

    request: Request
    conn: Conn
    digest: str | None  # grouping key; None for ``batch``
    arrival_pc: float  # perf_counter at admission (latency/spans)
    deadline: float | None  # absolute loop.time() deadline


def _op_key(request: Request) -> tuple | None:
    """What makes two queued ops on one graph "the same op" for the
    execution rule (module docstring, step 6); None for the ops that
    always run on a worker thread."""
    if request.op == "classify":
        return ("classify",)
    if request.op == "schedule":
        name = request.params.get("heuristic", "CLANS")
        if isinstance(name, str):
            return ("schedule", name, bool(request.params.get("improve")))
    return None


def _loop_budget_s() -> float:
    """The longest last run, in seconds, that lets an op run on the event
    loop: one GIL switch interval, which is how long a worker thread may
    already hold off the loop thread."""
    return sys.getswitchinterval()


async def _after_pending_reads() -> None:
    """Yield to the loop until the frames that arrived meanwhile have been
    read and admitted.

    ``asyncio.sleep(0)`` would resume first: the loop's next pass runs
    the callbacks already queued before the socket reads it polls.  A
    zero-delay timer is queued after that pass's reads instead, so the
    resumed task runs behind the connection handlers they wake.
    """
    loop = asyncio.get_running_loop()
    done = loop.create_future()
    timer = loop.call_later(0, done.set_result, None)
    try:
        await done
    finally:
        timer.cancel()


class _Entry:
    """One cached graph and, per op key, how long its last run took."""

    __slots__ = ("graph", "seconds")

    def __init__(self, graph: TaskGraph) -> None:
        self.graph = graph
        self.seconds: dict[tuple, float] = {}


class _GraphCache:
    """Size-bounded LRU of graph digest → decoded (and index-compiled)
    :class:`TaskGraph`, shared by the worker threads and the event loop.

    A hit skips the JSON decode and — because the compiled
    :class:`~repro.core.kernels.GraphIndex` and the clan parse are
    memoized on the graph object — the index compile and, for CLANS, the
    parse.  Eviction calls :func:`repro.core.kernels.discard_index` and
    :func:`repro.clans.decomposition.discard_parse` so a graph referenced
    elsewhere does not pin its index or parse forever.
    Hits/misses/evictions are counted as ``service.index_cache.*``.  Each
    entry also keeps the last run time of every op on its graph
    (:meth:`last_seconds`), which decides where the next such op runs.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._items: OrderedDict[str, _Entry] = OrderedDict()
        self._lock = threading.Lock()

    def get_or_decode(self, digest: str, wire_graph: Mapping[str, Any]) -> TaskGraph:
        registry = get_registry()
        if self.capacity > 0:
            with self._lock:
                entry = self._items.get(digest)
                if entry is not None:
                    self._items.move_to_end(digest)
                    registry.inc("service.index_cache.hits")
                    return entry.graph
        # Decoded outside the lock, which the event-loop thread takes to
        # run a known-fast op and must not wait out another graph's decode.
        graph = wire.graph_from_wire(wire_graph)
        registry.inc("service.index_cache.misses")
        if self.capacity <= 0:
            return graph
        with self._lock:
            # a racing decode of the same graph that got here first wins
            entry = self._items.setdefault(digest, _Entry(graph))
            while len(self._items) > self.capacity:
                _, evicted = self._items.popitem(last=False)
                discard_index(evicted.graph)
                discard_parse(evicted.graph)
                registry.inc("service.index_cache.evictions")
        return entry.graph

    def last_seconds(self, digest: str, key: tuple) -> float | None:
        """Seconds the op ``key`` last took on graph ``digest``; None when
        it has not run since the graph entered the cache."""
        with self._lock:
            entry = self._items.get(digest)
            return None if entry is None else entry.seconds.get(key)

    def record(self, digest: str, key: tuple, seconds: float) -> None:
        """Keep ``seconds`` as the last run time of op ``key`` on ``digest``
        (dropped when the graph is not cached)."""
        with self._lock:
            entry = self._items.get(digest)
            if entry is not None:
                entry.seconds[key] = seconds

    def stats(self) -> dict:
        with self._lock:
            return {"size": len(self._items), "capacity": self.capacity}


def stats_view(snap: Mapping[str, Any]) -> dict:
    """The registry part of a ``stats`` payload, from a snapshot of the
    daemon's registry (or of the sharded router's merge of its workers')."""
    return {
        "counters": {
            k: v
            for k, v in snap["counters"].items()
            if k.startswith(("service.", "kernels."))
        },
        "op_timers": {
            k: v for k, v in snap["timers"].items() if k.startswith("service.op.")
        },
        "latency_ms": snap["histograms"].get("service.latency_ms"),
    }


class ReproServer(Endpoint):
    """The scheduling service daemon.  See the module docstring for the
    request pipeline; see :class:`ServerThread` for in-process embedding.

    Parameters mirror the ``repro serve`` flags: listen on ``socket_path``
    (Unix) when given, else TCP ``host:port`` (``port=0`` binds an
    ephemeral port, readable from :attr:`address` after :meth:`start`).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        socket_path: str | None = None,
        queue_size: int = 128,
        batch_max: int = 16,
        threads: int = 1,
        index_cache_size: int = 64,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        manifest_path: str | None = None,
    ) -> None:
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        super().__init__(
            host=host,
            port=port,
            socket_path=socket_path,
            max_frame_bytes=max_frame_bytes,
            manifest_path=manifest_path,
        )
        self.queue_size = queue_size
        self.batch_max = batch_max
        self.threads = threads
        self.verbs = {
            "health": self._on_health,
            "stats": self._on_stats,
            "metrics": self._on_metrics,
            **dict.fromkeys(QUEUED_OPS, self._on_queued),
        }
        self._cache = _GraphCache(index_cache_size)
        self._queue: asyncio.Queue = asyncio.Queue()  # capacity enforced manually
        self._group_tasks: set[asyncio.Task] = set()
        self._dispatch_task: asyncio.Task | None = None
        self._sem: asyncio.Semaphore | None = None
        self._loop_turn = asyncio.Lock()  # held by the op running inline
        self._executor: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the dispatcher."""
        self._sem = asyncio.Semaphore(self.threads)
        self._executor = ThreadPoolExecutor(
            max_workers=self.threads, thread_name_prefix="repro-service"
        )
        await super().start()
        self._dispatch_task = asyncio.get_running_loop().create_task(self._dispatch())
        self._log.info("serving on %s", self.endpoint)

    async def _finish(self) -> None:
        """The drain's daemon part: reject what is still queued, then let
        the started groups run to completion and send their responses."""
        registry = get_registry()
        # Synchronously (no awaits) move queued-but-unstarted items aside and
        # plant the dispatcher's stop sentinel, so nothing can slip into the
        # queue between the flush and the sentinel.
        flushed: list[_Item] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not _STOP:
                flushed.append(item)
        self._queue.put_nowait(_STOP)
        for item in flushed:
            registry.inc("service.shed")
            registry.inc("service.errors")
            await self.send(
                item.conn,
                error_response(
                    item.request.id,
                    SHED,
                    "server draining; request was queued but not started",
                    status="draining",
                ),
            )
        if self._dispatch_task is not None:
            await self._dispatch_task
        if self._group_tasks:  # in-flight work runs to completion
            await asyncio.gather(*list(self._group_tasks), return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._log.info("drain: %d queued requests rejected", len(flushed))

    def _manifest_config(self) -> dict:
        registry = get_registry()
        return {
            "command": "serve",
            "endpoint": self.endpoint,
            "queue_size": self.queue_size,
            "batch_max": self.batch_max,
            "threads": self.threads,
            "index_cache": self._cache.stats(),
            "uptime_s": round(perf_counter() - self._started_pc, 3),
            "requests": registry.counter("service.requests"),
            "errors": registry.counter("service.errors"),
            "shed": registry.counter("service.shed"),
            "deadline_misses": registry.counter("service.deadline_misses"),
        }

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    async def _on_health(self, conn: Conn, request: Request) -> dict:
        return ok_response(request.id, self._health())

    async def _on_stats(self, conn: Conn, request: Request) -> dict:
        full = bool(request.params.get("full"))
        return ok_response(request.id, self._stats(full=full))

    async def _on_metrics(self, conn: Conn, request: Request) -> dict:
        return ok_response(request.id, metrics_result(get_registry().snapshot()))

    async def _on_queued(self, conn: Conn, request: Request) -> dict | None:
        error = self._admit(conn, request)
        if error is not None:
            get_registry().inc("service.errors")
        return error

    def _admit(self, conn: Conn, request: Request) -> dict | None:
        """Admit ``request`` to the queue, or return the shed/invalid
        response to send instead."""
        registry = get_registry()
        if self._draining:
            registry.inc("service.shed")
            return error_response(
                request.id, SHED, "server draining", status="draining"
            )
        if self._queue.qsize() >= self.queue_size:
            registry.inc("service.shed")
            return error_response(request.id, SHED, "admission queue full")
        digest: str | None = None
        if request.op in ("schedule", "classify", "simulate"):
            graph = request.params.get("graph")
            if not isinstance(graph, dict):
                return error_response(
                    request.id, INVALID, "params.graph must be a graph object"
                )
            try:
                digest = wire.graph_digest(graph)
            except ValueError as exc:
                return error_response(
                    request.id, INVALID, f"unencodable graph: {exc}"
                )
        elif request.op == "batch":
            subs = request.params.get("requests")
            if not isinstance(subs, list):
                return error_response(
                    request.id, INVALID, "params.requests must be a list"
                )
            if len(subs) > MAX_BATCH_REQUESTS:
                return error_response(
                    request.id,
                    INVALID,
                    f"batch of {len(subs)} exceeds {MAX_BATCH_REQUESTS} requests",
                )
        loop = asyncio.get_running_loop()
        deadline = (
            loop.time() + request.deadline_ms / 1000.0
            if request.deadline_ms is not None
            else None
        )
        item = _Item(
            request=request,
            conn=conn,
            digest=digest,
            arrival_pc=perf_counter(),
            deadline=deadline,
        )
        self._queue.put_nowait(item)
        registry.inc("service.requests")
        tracer = get_tracer()
        if tracer.enabled:
            # Admission marker, tagged with the caller's trace id (the
            # caller's own span id: admission happens *before* the server's
            # handling span exists).  An untraced caller keeps the server's
            # ambient context instead of clearing it.
            remote = parse_traceparent(request.traceparent)
            with use_context(remote if remote is not None else current_context()):
                tracer.instant(
                    "service.admit",
                    cat="service",
                    op=request.op,
                    queue_depth=self._queue.qsize(),
                )
        return None

    # ------------------------------------------------------------------
    # dispatch and execution
    # ------------------------------------------------------------------
    async def _dispatch(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _STOP:
                break
            stopping = False
            group = [item]
            while len(group) < self.batch_max:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _STOP:
                    stopping = True
                    break
                group.append(nxt)
            # Group by graph digest, preserving arrival order.  batch ops
            # (digest None) each form their own group.
            buckets: OrderedDict[object, list[_Item]] = OrderedDict()
            for it in group:
                key: object = it.digest if it.digest is not None else object()
                buckets.setdefault(key, []).append(it)
            registry = get_registry()
            for items in buckets.values():
                if len(items) > 1:
                    registry.inc("service.batch.groups")
                    registry.inc("service.batch.grouped_requests", len(items))
                assert self._sem is not None
                await self._sem.acquire()
                task = asyncio.get_running_loop().create_task(
                    self._run_group(items)
                )
                self._group_tasks.add(task)
                task.add_done_callback(self._group_done)
            if stopping:
                break

    def _group_done(self, task: asyncio.Task) -> None:
        self._group_tasks.discard(task)
        assert self._sem is not None
        self._sem.release()
        if not task.cancelled() and task.exception() is not None:
            self._log.error("group task failed: %r", task.exception())

    async def _run_group(self, items: list[_Item]) -> None:
        # Items in a group share a digest; the first execution decodes (or
        # LRU-hits) the graph and compiles its index, the rest reuse both.
        for item in items:
            await self._run_item(item)

    async def _run_item(self, item: _Item) -> None:
        """Run and answer one admitted request."""
        key = _op_key(item.request)
        on_loop = self._known_fast(item.digest, key)
        if on_loop:
            # One inline op per loop pass, across all groups: the turn is
            # held until the frames that arrived during the op have been
            # read and admitted, and the reply is sent after that.
            await self._loop_turn.acquire()
            # the graph may have been re-timed or evicted during the wait
            on_loop = self._known_fast(item.digest, key)
            if not on_loop:
                self._loop_turn.release()
        try:
            response = await self._answer(item, key, on_loop=on_loop)
            if on_loop:
                await _after_pending_reads()
        finally:
            if on_loop:
                self._loop_turn.release()
        await self.send(item.conn, response)

    def _known_fast(self, digest: str | None, key: tuple | None) -> bool:
        """Whether the op ``key`` last ran on graph ``digest`` within the
        loop budget (module docstring, step 6)."""
        if key is None:
            return False
        last = self._cache.last_seconds(digest, key)
        return last is not None and last <= _loop_budget_s()

    async def _answer(
        self, item: _Item, key: tuple | None, *, on_loop: bool
    ) -> dict:
        """Run one admitted request's op, on the loop thread or a worker
        thread, and return its response."""
        loop = asyncio.get_running_loop()
        registry = get_registry()
        tracer = get_tracer()
        request = item.request
        # Adopt the caller's trace: the server's handling is a child span of
        # the hop that carried the request.  An untraced caller falls back
        # to the daemon's own ambient context (serve --trace) so executor
        # threads — which contextvars do not reach — still tag their spans.
        # Token-scoped so the context is confined to this item even though
        # _run_group serializes items on one task.
        remote = parse_traceparent(request.traceparent)
        ctx = remote.child() if remote is not None else current_context()
        token = activate(ctx) if ctx is not None else None
        try:
            exec_start = perf_counter()
            if tracer.enabled:
                tracer.add_span(
                    "service.queue",
                    item.arrival_pc,
                    exec_start - item.arrival_pc,
                    cat="service",
                    args={"op": request.op},
                )
            code: int | None = None
            message = ""
            result: Any = None
            if item.deadline is not None and loop.time() >= item.deadline:
                queued_ms = (perf_counter() - item.arrival_pc) * 1e3
                code, message = DEADLINE, (
                    f"deadline exceeded before execution (queued {queued_ms:.1f} ms)"
                )
            else:
                try:
                    with registry.timer(f"service.op.{request.op}"):
                        if on_loop:
                            registry.inc("service.exec.loop")
                            result = self._run_timed(request, item.digest, key)
                        else:
                            registry.inc("service.exec.worker")
                            result = await loop.run_in_executor(
                                self._executor,
                                self._run_queued_op_in_ctx,
                                ctx,
                                request,
                                item.digest,
                                key,
                            )
                except ProtocolError as exc:
                    code, message = exc.code, str(exc)
                except ReproError as exc:
                    code, message = INVALID, str(exc)
                except Exception as exc:  # noqa: BLE001 - daemon must not die
                    self._log.exception("internal error in op %s", request.op)
                    code, message = INTERNAL, f"{type(exc).__name__}: {exc}"
                if code is None and item.deadline is not None and loop.time() > item.deadline:
                    code, message = DEADLINE, (
                        "deadline exceeded during execution; result discarded"
                    )
            if code == DEADLINE:
                registry.inc("service.deadline_misses")
            if code is None:
                response = ok_response(request.id, result)
            else:
                registry.inc("service.errors")
                response = error_response(request.id, code, message)
            duration = perf_counter() - item.arrival_pc
            registry.observe(
                "service.latency_ms", duration * 1e3, bounds=DEFAULT_LATENCY_BOUNDS_MS
            )
            if tracer.enabled:
                tracer.add_span(
                    f"service.{request.op}",
                    item.arrival_pc,
                    duration,
                    cat="service",
                    args={"op": request.op, "code": code if code is not None else 200},
                )
        finally:
            if token is not None:
                deactivate(token)
        return response

    # ------------------------------------------------------------------
    # op handlers (worker threads, or the loop for known-fast ops; plain
    # library calls)
    # ------------------------------------------------------------------
    def _run_queued_op_in_ctx(
        self,
        ctx: "TraceContext | None",
        request: Request,
        digest: str | None,
        key: tuple | None,
    ) -> Any:
        """Executor-thread entry: ``run_in_executor`` does not propagate
        contextvars, so the trace context is re-activated here — that is
        what tags kernel-compile and scheduler spans with the trace id."""
        if ctx is None:
            return self._run_timed(request, digest, key)
        token = activate(ctx)
        try:
            return self._run_timed(request, digest, key)
        finally:
            deactivate(token)

    def _run_timed(
        self, request: Request, digest: str | None, key: tuple | None
    ) -> Any:
        """Run one queued op; an op with a ``key`` keeps how long it took
        in its graph's cache entry (a failed run keeps nothing)."""
        start = perf_counter()
        result = self._run_queued_op(request, digest)
        if key is not None:
            self._cache.record(digest, key, perf_counter() - start)
        return result

    def _run_queued_op(self, request: Request, digest: str | None) -> Any:
        """Run one queued op.  ``digest`` is the graph's digest when the
        caller already has it (admission computes it); None hashes here."""
        if request.op == "batch":
            return self._op_batch(request.params)
        graph = self._resolve_graph(request.params, digest)
        if request.op == "schedule":
            return self._op_schedule(graph, request.params)
        if request.op == "classify":
            return classify_result(graph)
        if request.op == "simulate":
            return self._op_simulate(graph, request.params)
        raise ProtocolError(f"unknown op {request.op!r}")  # unreachable

    def _resolve_graph(
        self, params: Mapping[str, Any], digest: str | None
    ) -> TaskGraph:
        wire_graph = params.get("graph")
        if not isinstance(wire_graph, dict):
            raise ProtocolError("params.graph must be a graph object")
        if digest is None:
            digest = wire.graph_digest(wire_graph)
        try:
            return self._cache.get_or_decode(digest, wire_graph)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"params.graph does not decode: {exc}") from None

    @staticmethod
    def _op_schedule(graph: TaskGraph, params: Mapping[str, Any]) -> dict:
        name = params.get("heuristic", "CLANS")
        if not isinstance(name, str):
            raise ProtocolError("params.heuristic must be a string")
        try:
            scheduler = get_scheduler(name)
        except KeyError as exc:
            raise ProtocolError(str(exc.args[0])) from None
        if params.get("improve"):
            from ..schedulers.improve import LocalSearchImprover

            scheduler = LocalSearchImprover(scheduler)
        schedule = scheduler.schedule(graph)
        return schedule_result(scheduler.name, graph, schedule)

    @staticmethod
    def _op_simulate(graph: TaskGraph, params: Mapping[str, Any]) -> dict:
        clusters = params.get("clusters")
        if not isinstance(clusters, list) or not all(
            isinstance(c, list) for c in clusters
        ):
            raise ProtocolError("params.clusters must be a list of task lists")
        thawed = [[wire.thaw_task(t) for t in cluster] for cluster in clusters]
        schedule = simulate_ordered(graph, thawed, validate=True)
        return simulate_result(graph, schedule)

    def _op_batch(self, params: Mapping[str, Any]) -> dict:
        subs = params.get("requests")
        if not isinstance(subs, list):
            raise ProtocolError("params.requests must be a list")
        responses = []
        # (marshal bytes, digest) of the last graph hashed: a sub-request
        # repeating its predecessor's graph reuses the digest.  marshal
        # format 2 writes types, values and key order with no
        # back-references, so equal bytes mean an equal wire encoding
        # (where ``==`` would equate 1, 1.0 and True).
        last: tuple[bytes, str] | None = None
        for i, sub in enumerate(subs):
            if not isinstance(sub, dict):
                responses.append(
                    error_response(None, INVALID, f"requests[{i}] must be an object")
                )
                continue
            sub_id = sub.get("id")
            if sub_id is not None and not isinstance(sub_id, (int, str)):
                sub_id = None
            op = sub.get("op")
            sub_params = sub.get("params", {})
            if op == "batch":
                responses.append(
                    error_response(sub_id, INVALID, "batch ops cannot nest")
                )
                continue
            if op not in QUEUED_OPS or not isinstance(sub_params, dict):
                responses.append(
                    error_response(sub_id, INVALID, f"requests[{i}]: bad op/params")
                )
                continue
            try:
                digest = None
                wire_graph = sub_params.get("graph")
                if isinstance(wire_graph, dict):
                    raw = marshal.dumps(wire_graph, 2)
                    if last is not None and last[0] == raw:
                        digest = last[1]
                    else:
                        digest = wire.graph_digest(wire_graph)
                        last = (raw, digest)
                result = self._run_queued_op(
                    Request(id=sub_id, op=op, params=sub_params), digest
                )
                responses.append(ok_response(sub_id, result))
            except ProtocolError as exc:
                responses.append(error_response(sub_id, exc.code, str(exc)))
            except ReproError as exc:
                responses.append(error_response(sub_id, INVALID, str(exc)))
            except Exception as exc:  # noqa: BLE001
                self._log.exception("internal error in batch[%d]", i)
                responses.append(
                    error_response(sub_id, INTERNAL, f"{type(exc).__name__}: {exc}")
                )
        get_registry().inc("service.batch.requests", len(subs))
        return {"responses": responses}

    # ------------------------------------------------------------------
    # inline ops
    # ------------------------------------------------------------------
    def _health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(perf_counter() - self._started_pc, 3),
            "pid": os.getpid(),
        }

    def _stats(self, *, full: bool = False) -> dict:
        """The ``stats`` inline op.  With ``{"full": true}`` the payload also
        carries the complete registry snapshot — that is what the sharded
        router merges across workers (``MetricsRegistry.merge`` is exact for
        counters, timers and fixed-bucket histograms)."""
        snap = get_registry().snapshot()
        payload = {
            "uptime_s": round(perf_counter() - self._started_pc, 3),
            "draining": self._draining,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.queue_size,
            "inflight_groups": len(self._group_tasks),
            "index_cache": self._cache.stats(),
            **stats_view(snap),
        }
        if full:
            payload["registry"] = snap
        return payload


#: ``repro serve``'s foreground runner (see
#: :func:`~repro.service.endpoint.run_endpoint`).
run_server = run_endpoint


class ServerThread(EndpointThread):
    """Run a :class:`ReproServer` on a background thread with its own event
    loop — the embedding used by tests and benchmarks.

    Usage::

        with ServerThread(port=0) as srv:
            client = ServiceClient(srv.address)
            ...

    ``__exit__`` performs a full graceful drain, so counters and manifests
    written at drain time are observable after the ``with`` block.
    """

    def __init__(self, **server_kwargs: Any) -> None:
        super().__init__(lambda: ReproServer(**server_kwargs), name="repro-server")

    @property
    def server(self) -> ReproServer:
        return self.endpoint
