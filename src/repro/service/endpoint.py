"""The NDJSON endpoint core under every network tier.

The scheduling daemon (:mod:`repro.service.server`), the sharded router
(:mod:`repro.service.shard`) and the campaign coordinator
(:mod:`repro.campaign.coordinator`) differ only in the verbs they serve.
:class:`Endpoint` owns the rest: the bind, the frame loop, verb dispatch,
the locked send and the drain.  :func:`run_endpoint` runs an endpoint in
the foreground and :class:`EndpointThread` on a background thread.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import os
import signal
import socket
import sys
import threading
from collections.abc import Awaitable, Callable, Coroutine, Mapping
from time import perf_counter
from typing import Any

from ..core import wire
from ..obs.log import get_logger
from ..obs.manifest import RunManifest
from ..obs.metrics import get_registry
from .protocol import (
    MAX_FRAME_BYTES,
    TOO_LARGE,
    VERB_TIERS,
    ProtocolError,
    Request,
    decode_request,
    encode_response,
    error_response,
)

__all__ = [
    "BIND_ERRNOS",
    "Conn",
    "Endpoint",
    "EndpointThread",
    "bind_failure",
    "format_address",
    "guard_unix_socket_path",
    "run_endpoint",
    "unix_socket_accepts",
]

#: Bind failures worth a readable one-liner instead of a traceback: port (or
#: Unix socket path) taken, address not local, privileged port.
BIND_ERRNOS = (errno.EADDRINUSE, errno.EADDRNOTAVAIL, errno.EACCES)

#: How long :meth:`EndpointThread.stop` waits for the drain.
STOP_TIMEOUT_S = 60.0


class Conn:
    """One client connection: its writer plus a write lock (replies to
    pipelined requests may complete concurrently)."""

    __slots__ = ("writer", "lock")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()


Handler = Callable[[Conn, Request], Awaitable["dict | None"]]


def format_address(address: "tuple[str, int] | str") -> str:
    """``host:port``, or ``unix:PATH`` for a Unix socket path."""
    if isinstance(address, str):
        return f"unix:{address}"
    return f"{address[0]}:{address[1]}"


class Endpoint:
    """One NDJSON listener on TCP ``host:port`` (``port=0`` binds an
    ephemeral port) or, when given, the Unix socket ``socket_path``.

    * Frames: one request per line; blank lines are skipped.  A frame over
      ``max_frame_bytes`` gets a 413 and its connection is closed, since
      line sync is lost.  A frame that does not decode gets its decode
      error, with the request id when the frame was an object carrying one.
    * Dispatch: through the tier's :attr:`verbs`, op → ``async
      handler(conn, request)`` returning the reply, or None when the
      handler sends it later itself (from its queue, or from a task it
      started with :meth:`spawn`).  A known op outside the table gets a
      400 naming the tier that serves it
      (:data:`~repro.service.protocol.VERB_TIERS`).
    * Drain (:meth:`begin_drain`): close the listener; wait until no frame
      is being handled and no spawned reply is running, so every running
      verb's reply has been sent; await the tier's own in-flight work
      (:meth:`_finish`); write the run manifest (:meth:`_manifest_config`)
      when ``manifest_path`` is set; close the connections.
    """

    #: Prefix of the tier's ``.errors`` and ``.responses.dropped`` counters.
    counter_prefix = "service"
    _log = get_logger("service")

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | None = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        manifest_path: str | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.max_frame_bytes = max_frame_bytes
        self.manifest_path = manifest_path
        self.verbs: dict[str, Handler] = {}
        self._server: asyncio.base_events.Server | None = None
        self._address: "tuple[str, int] | str | None" = None
        self._conns: set[Conn] = set()
        self._busy: set[asyncio.Task] = set()  # handling a frame, or spawned
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._drain_task: asyncio.Task | None = None
        self._done = asyncio.Event()
        self._started_pc = 0.0

    async def start(self) -> None:
        """Bind the listener."""
        if self.socket_path is not None:
            guard_unix_socket_path(self.socket_path)
            self._server = await asyncio.start_unix_server(
                self._serve, path=self.socket_path, limit=self.max_frame_bytes
            )
            self._address = self.socket_path
        else:
            self._server = await asyncio.start_server(
                self._serve, self.host, self.port, limit=self.max_frame_bytes
            )
            self._address = self._server.sockets[0].getsockname()[:2]
        self._started_pc = perf_counter()

    @property
    def address(self) -> "tuple[str, int] | str":
        """Bound address: ``(host, port)`` for TCP, the path for Unix."""
        if self._address is None:
            raise RuntimeError("endpoint not started")
        return self._address

    @property
    def endpoint(self) -> str:
        """Human-readable bound address (``host:port`` or ``unix:PATH``)."""
        return format_address(self.address)

    @property
    def banner(self) -> str:
        """The stderr line :func:`run_endpoint` prints once listening."""
        return f"repro service listening on {self.endpoint}"

    def begin_drain(self) -> None:
        """Start a graceful drain (idempotent; also the SIGTERM handler)."""
        if not self._draining:
            self._draining = True
            self._drain_task = asyncio.get_running_loop().create_task(self._drain())

    async def wait_drained(self) -> None:
        """Block until a drain started by :meth:`begin_drain` completes."""
        await self._done.wait()

    async def _drain(self) -> None:
        self._log.info("drain: closing the listener, finishing in-flight work")
        self._server.close()
        if self.socket_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)
        while self._busy:  # a frame on an open connection may start meanwhile
            await self._idle.wait()
        await self._finish()
        if self.manifest_path:
            manifest = RunManifest.collect(config=self._manifest_config())
            manifest.attach_metrics(get_registry())
            try:
                path = manifest.write(self.manifest_path)
            except OSError as exc:  # the drain must still finish
                self._log.error("drain: cannot write run manifest: %s", exc)
            else:
                self._log.info("drain: wrote run manifest to %s", path)
        for conn in list(self._conns):
            conn.writer.close()
        await self._server.wait_closed()
        self._log.info("drain complete")
        self._done.set()

    async def _finish(self) -> None:
        """The tier's part of the drain, once no frame or spawned reply is
        running."""

    def _manifest_config(self) -> dict:
        """The ``config`` block of the run manifest written on drain."""
        raise NotImplementedError

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = Conn(writer)
        self._conns.add(conn)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Oversized frame: the reader dropped its buffer, so line
                    # sync is gone — report and close this connection.
                    get_registry().inc(f"{self.counter_prefix}.errors")
                    await self.send(
                        conn,
                        error_response(
                            None,
                            TOO_LARGE,
                            f"frame exceeds {self.max_frame_bytes} bytes",
                        ),
                    )
                    break
                if not line:
                    break
                if line.strip():
                    await self._frame(conn, line)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conns.discard(conn)
            writer.close()

    async def _frame(self, conn: Conn, line: bytes) -> None:
        task = asyncio.current_task()
        self._busy.add(task)
        self._idle.clear()
        try:
            try:
                request = decode_request(line)
            except ProtocolError as exc:
                reply = self._refuse(_frame_id(line), exc)
            else:
                handler = self.verbs.get(request.op)
                if handler is not None:
                    reply = await handler(conn, request)
                else:
                    tier = VERB_TIERS[request.op]
                    exc = ProtocolError(f"{request.op} requires {tier}")
                    reply = self._refuse(request.id, exc)
            if reply is not None:
                await self.send(conn, reply)
        finally:
            self._settle(task)

    def spawn(self, reply: Coroutine[Any, Any, None]) -> None:
        """Run ``reply``, a handler's coroutine that sends its reply itself,
        on a task of its own; the drain waits for it as for a frame."""
        task = asyncio.get_running_loop().create_task(reply)
        self._busy.add(task)
        self._idle.clear()
        task.add_done_callback(self._settle)

    def _settle(self, task: asyncio.Task) -> None:
        self._busy.discard(task)
        if not self._busy:
            self._idle.set()

    def _refuse(self, req_id: "int | str | None", exc: ProtocolError) -> dict:
        get_registry().inc(f"{self.counter_prefix}.errors")
        return error_response(req_id, exc.code, str(exc))

    async def send(self, conn: Conn, obj: Mapping[str, Any]) -> None:
        """Write one reply frame; a reply to a vanished client is counted as
        ``<counter_prefix>.responses.dropped``."""
        data = encode_response(obj)
        try:
            async with conn.lock:
                if conn.writer.is_closing():
                    return
                conn.writer.write(data)
                await conn.writer.drain()
        except OSError:
            get_registry().inc(f"{self.counter_prefix}.responses.dropped")


def _frame_id(line: bytes) -> "int | str | None":
    """The id of a frame that did not decode, when it is a JSON object
    carrying a usable one (for the caller's correlation)."""
    try:
        obj = wire.loads(line)
    except ValueError:
        return None
    if isinstance(obj, dict) and isinstance(obj.get("id"), (int, str)):
        return obj["id"]
    return None


def unix_socket_accepts(path: str, timeout: float) -> bool:
    """Whether something accepts connections on the Unix socket ``path``."""
    probe = socket.socket(socket.AF_UNIX)
    try:
        probe.settimeout(timeout)
        probe.connect(path)
        return True
    except OSError:
        return False
    finally:
        probe.close()


def guard_unix_socket_path(path: str) -> None:
    """Refuse to bind a Unix socket path that a live endpoint is serving.

    ``asyncio.start_unix_server`` unlinks an existing socket file
    *unconditionally* before binding, so without this probe a second
    ``repro serve --socket PATH`` silently steals the endpoint out from
    under the running daemon (which keeps serving an unlinked inode that
    no new client can reach).  Probe with a connect: anything accepting
    means EADDRINUSE; a stale leftover (connection refused) or a missing
    file is left for asyncio's unlink-and-bind.
    """
    if unix_socket_accepts(path, 0.25):
        raise OSError(errno.EADDRINUSE, "Address already in use", path)


def bind_failure(exc: OSError, command: str, endpoint: str, hint: str = "") -> int:
    """Report a failed listen on stderr in one line (``hint`` appended) and
    return exit code 2; re-raise ``exc`` unless it is in :data:`BIND_ERRNOS`."""
    if exc.errno not in BIND_ERRNOS:
        raise exc
    taken = (
        " (is another daemon already running there?)"
        if exc.errno == errno.EADDRINUSE
        else ""
    )
    reason = exc.strerror or str(exc)
    print(
        f"{command}: cannot listen on {endpoint}: {reason}{taken}{hint}",
        file=sys.stderr,
        flush=True,
    )
    return 2


def run_endpoint(
    endpoint: Endpoint, *, handle_signals: bool = True, banner: bool = True
) -> int:
    """Run ``endpoint`` (a ``repro serve`` tier) until its drain completes.

    Returns 0, or 2 with one line on stderr when the address cannot be
    bound.  SIGTERM and SIGINT begin the drain, so a supervisor's ``kill
    -TERM`` finishes in-flight work, writes the manifest and exits cleanly.
    ``banner=False`` suppresses the :attr:`Endpoint.banner` line (the
    sharded tier's workers, whose router owns the banner).
    """

    async def _main() -> int:
        try:
            await endpoint.start()
        except OSError as exc:
            requested = endpoint.socket_path or (endpoint.host, endpoint.port)
            return bind_failure(exc, "repro serve", format_address(requested))
        if handle_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, endpoint.begin_drain)
                except NotImplementedError:  # pragma: no cover - non-POSIX
                    pass
        if banner:
            print(endpoint.banner, file=sys.stderr, flush=True)
        await endpoint.wait_drained()
        return 0

    return asyncio.run(_main())


class EndpointThread:
    """Run an endpoint built by ``make`` on a background thread with its
    own event loop.

    :meth:`start` returns once the endpoint is bound, or raises its start
    error; :meth:`stop` drains it and joins the thread.  As a context
    manager the block's exit drains, so counters and manifests written at
    drain time are observable after it.
    """

    def __init__(self, make: Callable[[], Endpoint], name: str) -> None:
        self._make = make
        self._name = name
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None
        #: The running endpoint (None until :meth:`start` returns).
        self.endpoint: Endpoint | None = None

    def start(self) -> "EndpointThread":
        self._thread = threading.Thread(target=self._run, name=self._name, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        endpoint = self._make()
        await endpoint.start()
        self._loop = asyncio.get_running_loop()
        self.endpoint = endpoint
        self._ready.set()
        await endpoint.wait_drained()

    @property
    def address(self) -> "tuple[str, int] | str":
        return self.endpoint.address

    def stop(self) -> None:
        """Drain the endpoint and join its thread; raise RuntimeError when
        the drain takes longer than :data:`STOP_TIMEOUT_S`."""
        if self._thread is None:
            return
        if self._thread.is_alive() and self.endpoint is not None:
            try:
                self._loop.call_soon_threadsafe(self.endpoint.begin_drain)
            except RuntimeError:  # the loop closed since the check: drained
                pass
        self._thread.join(STOP_TIMEOUT_S)
        if self._thread.is_alive():
            raise RuntimeError(f"{self._name} did not drain in {STOP_TIMEOUT_S:g}s")

    def __enter__(self) -> "EndpointThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
