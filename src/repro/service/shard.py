"""Sharded serving tier: a router process fronting N worker processes.

The single-process daemon (:mod:`repro.service.server`) tops out around the
GIL: one interpreter decodes, schedules and encodes every request.  This
module scales it out without changing its semantics:

* **Workers** are plain :class:`~repro.service.server.ReproServer` event
  loops, one per *process* (``multiprocessing`` spawn), each listening on a
  private Unix socket.  They are shared-nothing: separate queues, caches,
  metrics registries, GILs.  SIGTERM still means "drain gracefully" — the
  supervisor restarts a shard by sending exactly that signal.
* **The router** (:class:`ReproRouter`) is an asyncio front door speaking
  the same NDJSON protocol.  Queued ops are forwarded to a shard chosen by
  **consistent hashing on the graph digest** (:mod:`repro.service.ring`),
  so a hot graph always lands on the same shard — its LRU index cache and
  micro-batcher stay warm for its slice of the keyspace.  Responses pass
  through the canonical wire codec (:mod:`repro.core.wire` preserves key
  order and float text), so a result routed through the tier is
  byte-identical to one from the worker — and to the library.
* **Merged observability**: ``health``/``stats``/``metrics`` fan out to all
  shards and come back as one view.  Worker registries are combined with
  :meth:`repro.obs.metrics.MetricsRegistry.merge` — exact for counters and
  for the fixed-bucket latency histograms (identical bounds → bucket counts
  add), so the merged p50/p95/p99 are what one big registry would have
  shown.  ``metrics`` renders the merged registry (plus the router's own
  ``router.*`` counters) in Prometheus text.  The per-frame ``traceparent``
  is re-activated around each router→worker hop, so one trace id stitches
  client → router → shard.
* **Rolling restarts**: the inline ``control`` op
  (``{"action": "restart", "shard": k}`` — omit ``shard`` for all, one at a
  time) SIGTERMs a worker, waits for its graceful drain, and respawns it.
  Requests that hit the draining/vanished shard are retried with backoff on
  the same shard (covering the respawn window) and finally **rerouted** to
  the next shard on the ring — shared-nothing workers give the identical
  answer, just from a cold cache.  Retried/rerouted responses carry a
  ``routing`` envelope field which the client SDKs fold into the
  ``client.shard_retries``/``client.reroutes`` pressure counters.

The router is a :class:`~repro.service.endpoint.Endpoint`: the core owns
bind, framing, verb dispatch and the drain skeleton, and the router adds
only its supervisor, ring, forward/retry, merged views and ``control``.
``repro serve --workers N`` (N >= 2) runs this tier; ``--workers 1`` keeps
the original single-process daemon byte-for-byte.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import shutil
import sys
import tempfile
import threading
import time
from collections.abc import Mapping
from time import perf_counter
from typing import Any

from ..core import wire
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.telemetry import current_context, parse_traceparent, use_context
from .client import AsyncServiceClient, ServiceError
from .endpoint import (
    Conn,
    Endpoint,
    EndpointThread,
    run_endpoint,
    unix_socket_accepts,
)
from .protocol import (
    DEFAULT_PORT,
    INLINE_OPS,
    INTERNAL,
    INVALID,
    MAX_FRAME_BYTES,
    QUEUED_OPS,
    SHED,
    Request,
    error_response,
    metrics_result,
    ok_response,
)
from .ring import DEFAULT_VNODES, HashRing
from .server import ReproServer, run_server, stats_view

__all__ = [
    "ShardStartError",
    "ShardSupervisor",
    "ReproRouter",
    "ShardedTier",
    "run_sharded",
]

#: Statuses worth retrying on another attempt/shard: the worker said "not
#: now" (draining) or could not be reached at all (restart window).  Shed,
#: invalid and deadline responses are real answers and pass through.
RETRIABLE_STATUSES = frozenset({"draining", "unavailable"})


class ShardStartError(RuntimeError):
    """A worker process exited or did not accept connections in time."""


def _worker_main(socket_path: str, config: dict) -> None:
    """Spawned-process entry: one ordinary daemon on a private Unix socket.

    ``run_server`` installs the usual SIGTERM/SIGINT handlers, so the
    supervisor's ``terminate()`` triggers the exact graceful drain the
    single-process deployment gets (in-flight completes, queued rejected
    503 "draining", exit 0).
    """
    server = ReproServer(socket_path=socket_path, **config)
    raise SystemExit(run_server(server, banner=False))


class ShardSupervisor:
    """Owns the N worker processes: spawn, readiness, crash respawn,
    rolling restart, shutdown.

    Workers listen on ``<runtime_dir>/shard-<k>.sock``; readiness is "the
    socket accepts a connection".  A monitor thread respawns shards that
    die unexpectedly (counted as ``router.shard_respawns``); intentional
    restarts go through :meth:`restart`, which drains via SIGTERM first.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        worker_config: "Mapping[str, Any] | None" = None,
        runtime_dir: str | None = None,
        respawn: bool = True,
        spawn_timeout: float = 60.0,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.worker_config = dict(worker_config or {})
        self._own_dir = runtime_dir is None
        self.runtime_dir = runtime_dir or tempfile.mkdtemp(prefix="repro-shards-")
        self.respawn = respawn
        self.spawn_timeout = spawn_timeout
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: "list[multiprocessing.process.BaseProcess | None]" = [
            None
        ] * n_shards
        self._lock = threading.Lock()
        self._restarting: set[int] = set()
        self._stopping = False
        self._monitor: threading.Thread | None = None
        self._log = get_logger("service.shard")
        #: completed rolling restarts (`control` op) / crash respawns.
        self.restarts = 0
        self.respawns = 0

    def socket_path(self, shard: int) -> str:
        return os.path.join(self.runtime_dir, f"shard-{shard}.sock")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardSupervisor":
        """Spawn every worker (concurrently) and wait until all accept."""
        for shard in range(self.n_shards):
            self._spawn(shard)
        for shard in range(self.n_shards):
            self._wait_ready(shard)
        if self.respawn:
            self._monitor = threading.Thread(
                target=self._watch, name="repro-shard-monitor", daemon=True
            )
            self._monitor.start()
        return self

    def _spawn(self, shard: int) -> None:
        path = self.socket_path(shard)
        with contextlib.suppress(OSError):
            os.unlink(path)  # stale socket from a previous incarnation
        proc = self._ctx.Process(
            target=_worker_main,
            args=(path, self.worker_config),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        proc.start()
        self._procs[shard] = proc

    def _wait_ready(self, shard: int) -> None:
        path = self.socket_path(shard)
        deadline = time.monotonic() + self.spawn_timeout
        while time.monotonic() < deadline:
            proc = self._procs[shard]
            if proc is not None and not proc.is_alive():
                raise ShardStartError(
                    f"shard {shard} exited with code {proc.exitcode} during startup"
                )
            if unix_socket_accepts(path, 1.0):
                return
            time.sleep(0.05)
        raise ShardStartError(
            f"shard {shard} not accepting within {self.spawn_timeout}s"
        )

    def restart(self, shard: int, *, drain_timeout: float = 30.0) -> None:
        """Rolling restart of one shard: SIGTERM (graceful drain), join,
        respawn, wait ready.  Blocking — call off the event loop."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"no shard {shard} (have 0..{self.n_shards - 1})")
        with self._lock:
            if self._stopping:
                return
            self._restarting.add(shard)
        try:
            proc = self._procs[shard]
            if proc is not None and proc.is_alive():
                proc.terminate()  # SIGTERM → worker drains and exits 0
                proc.join(drain_timeout)
                if proc.is_alive():  # pragma: no cover - wedged worker
                    self._log.warning("shard %d ignored SIGTERM; killing", shard)
                    proc.kill()
                    proc.join(5.0)
            self._spawn(shard)
            self._wait_ready(shard)
            self.restarts += 1
            self._log.info("shard %d restarted", shard)
        finally:
            with self._lock:
                self._restarting.discard(shard)

    def _watch(self) -> None:
        """Monitor thread: respawn shards that died without being asked."""
        while True:
            time.sleep(0.25)
            with self._lock:
                if self._stopping:
                    return
                restarting = set(self._restarting)
            for shard in range(self.n_shards):
                if shard in restarting:
                    continue
                proc = self._procs[shard]
                if proc is None or proc.is_alive():
                    continue
                with self._lock:
                    if self._stopping or shard in self._restarting:
                        continue
                self._log.warning(
                    "shard %d died (exit %s); respawning", shard, proc.exitcode
                )
                try:
                    self._spawn(shard)
                    self._wait_ready(shard)
                    self.respawns += 1
                    get_registry().inc("router.shard_respawns")
                except Exception:  # noqa: BLE001 - monitor must survive
                    self._log.exception("respawn of shard %d failed", shard)

    def stop(self, *, drain_timeout: float = 30.0) -> None:
        """SIGTERM every worker, wait for their graceful drains, clean up."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc is not None:
                proc.join(drain_timeout)
                if proc.is_alive():  # pragma: no cover - wedged worker
                    proc.kill()
                    proc.join(5.0)
        if self._monitor is not None:
            self._monitor.join(5.0)
        if self._own_dir:
            shutil.rmtree(self.runtime_dir, ignore_errors=True)


class ReproRouter(Endpoint):
    """The NDJSON front door of the sharded tier.

    Listens on TCP or a Unix socket (same flags as the daemon), keeps one
    pipelined :class:`AsyncServiceClient` per shard, and handles every
    frame on its own task so a slow shard never blocks the connection.
    :meth:`start` binds first and then spawns the workers, so a taken
    address fails before paying for them.  See the module docstring for
    routing, retry and merge semantics.
    """

    counter_prefix = "router"
    _log = get_logger("service.router")

    def __init__(
        self,
        supervisor: ShardSupervisor,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        socket_path: str | None = None,
        vnodes: int = DEFAULT_VNODES,
        shard_retries: int = 6,
        shard_backoff: float = 0.1,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        manifest_path: str | None = None,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            socket_path=socket_path,
            max_frame_bytes=max_frame_bytes,
            manifest_path=manifest_path,
        )
        self.supervisor = supervisor
        self.ring = HashRing(range(supervisor.n_shards), vnodes=vnodes)
        self.shard_retries = shard_retries
        self.shard_backoff = shard_backoff
        self.verbs = dict.fromkeys(QUEUED_OPS | INLINE_OPS, self._spawn)
        self._clients: list[AsyncServiceClient] = []
        self._rr = 0  # round-robin cursor for digestless ops

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener, then spawn the workers and wait until each
        accepts; the per-shard clients connect lazily."""
        self._clients = [
            AsyncServiceClient(
                self.supervisor.socket_path(shard), retries=2, backoff=0.05
            )
            for shard in range(self.supervisor.n_shards)
        ]
        await super().start()
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, self.supervisor.start)
        except BaseException:
            self._server.close()
            await loop.run_in_executor(None, self.supervisor.stop)
            raise
        self._log.info(
            "routing on %s across %d shards", self.endpoint, len(self._clients)
        )

    @property
    def banner(self) -> str:
        return (
            f"{super().banner} ({self.supervisor.n_shards} workers, "
            "digest-affinity routing)"
        )

    async def _finish(self) -> None:
        """The drain's router part, once the core has seen every in-flight
        forward answered while its worker was still up: drain the workers."""
        for client in self._clients:
            await client.close()
        await asyncio.get_running_loop().run_in_executor(None, self.supervisor.stop)

    def _manifest_config(self) -> dict:
        registry = get_registry()
        return {
            "command": "serve",
            "mode": "router",
            "endpoint": self.endpoint,
            "workers": self.supervisor.n_shards,
            "worker_config": self.supervisor.worker_config,
            "restarts": self.supervisor.restarts,
            "respawns": self.supervisor.respawns,
            "uptime_s": round(perf_counter() - self._started_pc, 3),
            "requests": registry.counter("router.requests"),
            "errors": registry.counter("router.errors"),
            "shard_retries": registry.counter("router.shard_retries"),
            "reroutes": registry.counter("router.reroutes"),
        }

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    async def _spawn(self, conn: Conn, request: Request) -> None:
        # One task per frame: pipelined requests to different shards
        # proceed concurrently; the connection's lock serializes the writes.
        self.spawn(self._answer(conn, request))

    async def _answer(self, conn: Conn, request: Request) -> None:
        registry = get_registry()
        registry.inc("router.requests")
        try:
            if request.op == "health":
                response = ok_response(request.id, await self._merged_health())
            elif request.op == "stats":
                response = ok_response(request.id, await self._merged_stats())
            elif request.op == "metrics":
                response = ok_response(request.id, await self._merged_metrics())
            elif request.op == "control":
                response = await self._control(request)
            else:
                response = await self._forward(request)
        except Exception as exc:  # noqa: BLE001 - the router must not die
            self._log.exception("internal error routing op %s", request.op)
            registry.inc("router.errors")
            response = error_response(
                request.id, INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        await self.send(conn, response)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route(self, request: Request) -> "tuple[int, str | None]":
        """``(shard, digest)`` for a queued op.  Graph-carrying ops (and
        batches, by their first sub-request's graph) ride the ring; anything
        without a usable digest round-robins.  Invalid graphs are *not*
        rejected here — the worker owns validation, so error text stays
        identical to the single-process daemon's."""
        digest: str | None = None
        graph: Any = None
        if request.op in ("schedule", "classify", "simulate"):
            graph = request.params.get("graph")
        elif request.op == "batch":
            subs = request.params.get("requests")
            if isinstance(subs, list) and subs and isinstance(subs[0], dict):
                params = subs[0].get("params")
                if isinstance(params, dict):
                    graph = params.get("graph")
        if isinstance(graph, dict):
            with contextlib.suppress(ValueError):
                digest = wire.graph_digest(graph)
        if digest is not None:
            return self.ring.shard_for(digest), digest
        self._rr += 1
        return self._rr % len(self._clients), None

    async def _forward(self, request: Request) -> dict:
        registry = get_registry()
        if self._draining:
            registry.inc("router.errors")
            return error_response(
                request.id, SHED, "router draining", status="draining"
            )
        loop = asyncio.get_running_loop()
        target, digest = self._route(request)
        deadline = (
            loop.time() + request.deadline_ms / 1000.0
            if request.deadline_ms is not None
            else None
        )
        # Re-activate the caller's context around the hop so the per-shard
        # client stamps a child traceparent: one trace id stitches
        # client → router → shard.  Untraced callers keep the router's own
        # ambient context (serve --trace).
        remote = parse_traceparent(request.traceparent)
        ctx = remote if remote is not None else current_context()
        retries = 0  # attempts burned on the current target
        total_retries = 0
        rerouted = False
        while True:
            try:
                with use_context(ctx):
                    result = await self._clients[target].call(
                        request.op, request.params, deadline_ms=request.deadline_ms
                    )
                response = ok_response(request.id, result)
                break
            except ServiceError as exc:
                expired = deadline is not None and loop.time() >= deadline
                if (
                    exc.status in RETRIABLE_STATUSES
                    and not expired
                    and not self._draining
                ):
                    if retries < self.shard_retries:
                        retries += 1
                        total_retries += 1
                        registry.inc("router.shard_retries")
                        await asyncio.sleep(self.shard_backoff * (2 ** (retries - 1)))
                        continue
                    if not rerouted and len(self._clients) > 1:
                        fallback = (
                            self.ring.fallback_for(digest, target)
                            if digest is not None
                            else (target + 1) % len(self._clients)
                        )
                        if fallback != target:
                            rerouted = True
                            retries = 0
                            target = fallback
                            registry.inc("router.reroutes")
                            continue
                registry.inc("router.errors")
                response = error_response(
                    request.id, exc.code, exc.message, status=exc.status
                )
                break
        if total_retries or rerouted:
            # Envelope metadata, sibling of "result": the payload bytes stay
            # untouched, but SDKs can count the pressure (client.shard_retries,
            # client.reroutes).
            response["routing"] = {
                "shard": target,
                "retries": total_retries,
                "rerouted": rerouted,
            }
        return response

    # ------------------------------------------------------------------
    # merged inline ops
    # ------------------------------------------------------------------
    async def _fanout(self, op: str, params: "dict | None" = None) -> list:
        """One call per shard, 5s timeout each; exceptions come back as
        values so one dead shard degrades the view instead of erasing it."""

        async def one(client: AsyncServiceClient) -> Any:
            return await asyncio.wait_for(client.call(op, params), timeout=5.0)

        return await asyncio.gather(
            *(one(c) for c in self._clients), return_exceptions=True
        )

    async def _merged_health(self) -> dict:
        payloads = await self._fanout("health")
        shards = []
        all_ok = True
        for i, payload in enumerate(payloads):
            if isinstance(payload, dict):
                shards.append({"shard": i, **payload})
                if payload.get("status") != "ok":
                    all_ok = False
            else:
                shards.append(
                    {"shard": i, "status": "unreachable", "error": str(payload)}
                )
                all_ok = False
        status = "draining" if self._draining else ("ok" if all_ok else "degraded")
        return {
            "status": status,
            "uptime_s": round(perf_counter() - self._started_pc, 3),
            "pid": os.getpid(),
            "workers": len(shards),
            "shards": shards,
        }

    def _merge_worker_registries(
        self, payloads: list
    ) -> "tuple[MetricsRegistry, list[dict]]":
        """Fold each worker's full registry snapshot into one registry (the
        exact shared-nothing merge) and return per-shard stats with the bulky
        snapshot stripped."""
        merged = MetricsRegistry()
        shards: list[dict] = []
        for i, payload in enumerate(payloads):
            if not isinstance(payload, dict):
                shards.append({"shard": i, "error": str(payload)})
                continue
            snapshot = payload.pop("registry", None)
            if isinstance(snapshot, dict):
                merged.merge(snapshot)
            shards.append({"shard": i, **payload})
        return merged, shards

    async def _merged_stats(self) -> dict:
        payloads = await self._fanout("stats", {"full": True})
        merged, shards = self._merge_worker_registries(payloads)
        gauges = {"queue_depth": 0, "queue_capacity": 0, "inflight_groups": 0}
        cache = {"size": 0, "capacity": 0}
        for entry in shards:
            for key in gauges:
                value = entry.get(key)
                if isinstance(value, (int, float)):
                    gauges[key] += value
            entry_cache = entry.get("index_cache")
            if isinstance(entry_cache, dict):
                for key in cache:
                    value = entry_cache.get(key)
                    if isinstance(value, (int, float)):
                        cache[key] += value
        router_registry = get_registry()
        router_counters = {
            k: v
            for k, v in router_registry.counters().items()
            if k.startswith(("router.", "client."))
        }
        return {
            "uptime_s": round(perf_counter() - self._started_pc, 3),
            "draining": self._draining,
            **gauges,
            "index_cache": cache,
            **stats_view(merged.snapshot()),
            "router": {
                "workers": len(self._clients),
                "restarts": self.supervisor.restarts,
                "respawns": self.supervisor.respawns,
                "counters": router_counters,
            },
            "shards": shards,
        }

    async def _merged_metrics(self) -> dict:
        payloads = await self._fanout("stats", {"full": True})
        merged, _ = self._merge_worker_registries(payloads)
        merged.merge(get_registry().snapshot())  # + router.*/client.* counters
        return metrics_result(merged.snapshot())

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    async def _control(self, request: Request) -> dict:
        action = request.params.get("action")
        if action != "restart":
            return error_response(
                request.id, INVALID, f"unknown control action {action!r}"
            )
        shard = request.params.get("shard")
        n = self.supervisor.n_shards
        if shard is None:
            targets = list(range(n))
        elif isinstance(shard, int) and not isinstance(shard, bool) and 0 <= shard < n:
            targets = [shard]
        else:
            return error_response(
                request.id, INVALID, f"shard must be null or 0..{n - 1}, got {shard!r}"
            )
        loop = asyncio.get_running_loop()
        start = perf_counter()
        for target in targets:  # strictly one at a time: a *rolling* restart
            await loop.run_in_executor(None, self.supervisor.restart, target)
        return ok_response(
            request.id,
            {"restarted": targets, "duration_s": round(perf_counter() - start, 3)},
        )


class ShardedTier(EndpointThread):
    """Router + workers on a background thread — the embedding tests and
    benchmarks use (the process-level analogue of
    :class:`~repro.service.server.ServerThread`).

    Usage::

        with ShardedTier(workers=2, worker_config={"threads": 1}) as tier:
            client = ServiceClient(tier.address)
            ...
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | None = None,
        worker_config: "Mapping[str, Any] | None" = None,
        **router_kwargs: Any,
    ) -> None:
        self.supervisor = ShardSupervisor(workers, worker_config=worker_config)
        super().__init__(
            lambda: ReproRouter(
                self.supervisor,
                host=host,
                port=port,
                socket_path=socket_path,
                **router_kwargs,
            ),
            name="repro-router",
        )


def run_sharded(
    *,
    workers: int,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    socket_path: str | None = None,
    worker_config: "Mapping[str, Any] | None" = None,
    manifest_path: str | None = None,
    vnodes: int = DEFAULT_VNODES,
    handle_signals: bool = True,
) -> int:
    """``repro serve --workers N`` (N >= 2): run the sharded tier until a
    graceful drain completes.  Returns 0; 2 when the router address cannot
    be bound (checked *before* paying the worker spawns); 1 when a worker
    fails to come up."""
    router = ReproRouter(
        ShardSupervisor(workers, worker_config=worker_config),
        host=host,
        port=port,
        socket_path=socket_path,
        vnodes=vnodes,
        manifest_path=manifest_path,
    )
    try:
        return run_endpoint(router, handle_signals=handle_signals)
    except ShardStartError as exc:
        print(f"repro serve: worker startup failed: {exc}", file=sys.stderr)
        return 1
